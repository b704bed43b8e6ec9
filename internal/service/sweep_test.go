package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestSweepExpansion checks grid expansion mechanics: cartesian order,
// axis application, fault_rate 0 meaning "no fault", and key-level
// deduplication of cells that spell the same computation.
func TestSweepExpansion(t *testing.T) {
	cells, _, err := SweepSpec{
		Base: JobSpec{Protocol: "s:0.1", Trials: 2000},
		Axes: SweepAxes{Rounds: []int{8, 10}, FaultRate: []float64{0, 0.25}},
	}.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	first := cells[0]
	if first.params["rounds"] != "8" || first.params["fault_rate"] != "0" {
		t.Errorf("first cell params %v", first.params)
	}
	if first.spec.Rounds != 8 || first.spec.Fault != "" {
		t.Errorf("fault_rate 0 cell spec %+v, want no fault plan", first.spec)
	}
	last := cells[3]
	if last.spec.Rounds != 10 || last.spec.Fault != "rand:0.25" {
		t.Errorf("last cell spec %+v", last.spec)
	}
	// Every cell is canonical: defaults are filled in.
	for i, c := range cells {
		if c.spec.Graph != "pair" || c.spec.Trials != 2000 || c.spec.Seed != 1 {
			t.Errorf("cell %d not canonical: %+v", i, c.spec)
		}
	}

	// Duplicate axis values and spellings of the default collapse.
	deduped, _, err := SweepSpec{
		Base: JobSpec{Protocol: "s:0.1"},
		Axes: SweepAxes{Rounds: []int{10, 10}, Trials: []int{20000, 20000}},
	}.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(deduped) != 1 {
		t.Errorf("duplicated axes expanded to %d cells, want 1", len(deduped))
	}

	// An epsilon axis derives the protocol spec; the base may omit it.
	eps, _, err := SweepSpec{
		Axes: SweepAxes{Epsilon: []float64{0.1, 0.2}},
	}.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 || eps[0].spec.Protocol != "s:0.1" || eps[1].spec.Protocol != "s:0.2" {
		t.Errorf("epsilon cells %+v", eps)
	}

	// graphs × rounds × epsilon with one duplicated rounds value: cells
	// come out graph-major, epsilon fastest, the duplicate's cells
	// dropped, each with its params, canonical spec and key.
	grid, _, err := SweepSpec{
		Base: JobSpec{Run: "good", Trials: 500, Seed: 3},
		Axes: SweepAxes{Graphs: []string{"pair", " Ring:4"}, Rounds: []int{4, 6, 4}, Epsilon: []float64{0.1, 0.25}},
	}.expand()
	if err != nil {
		t.Fatal(err)
	}
	var want []*sweepCell
	for _, g := range []string{"pair", "ring:4"} {
		for _, r := range []int{4, 6} {
			for _, e := range []string{"0.1", "0.25"} {
				canon, err := JobSpec{Protocol: "s:" + e, Graph: g, Rounds: r, Run: "good", Trials: 500, Seed: 3}.Canonicalize()
				if err != nil {
					t.Fatal(err)
				}
				params := map[string]string{"graph": g, "rounds": strconv.Itoa(r), "epsilon": e}
				want = append(want, &sweepCell{params: params, spec: canon, key: canon.Key()})
			}
		}
	}
	if len(grid) != len(want) {
		t.Fatalf("grid expanded to %d cells, want %d", len(grid), len(want))
	}
	for i, c := range grid {
		if !reflect.DeepEqual(c.params, want[i].params) || !reflect.DeepEqual(c.spec, want[i].spec) || c.key != want[i].key {
			t.Errorf("cell %d = %v %+v %s\nwant %v %+v %s", i, c.params, c.spec, c.key, want[i].params, want[i].spec, want[i].key)
		}
	}
}

// TestSweepOversizedAxisRefusedCheaply: a grid is sized from its axis
// lengths and its base's encoded size before any cell is built, so
// refusing a 100,000-value axis allocates next to nothing instead of
// rendering every value, and refusing 256 cells over a 300 KB custom:
// run (77 MB of cell specs, past maxBodyBytes) costs about one encoding
// of the base instead of parsing the run 256 times.
func TestSweepOversizedAxisRefusedCheaply(t *testing.T) {
	seeds := make([]uint64, 100_000)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	var deliveries strings.Builder
	for r := 1; r <= 16_000; r++ {
		fmt.Fprintf(&deliveries, ",1t2r%d,2t1r%d", r, r)
	}
	custom := "custom:N=16000;I=1,2;M=" + deliveries.String()[1:]
	for _, tc := range []struct {
		name  string
		ss    SweepSpec
		limit uint64
	}{
		{"100,000-cell axis", SweepSpec{Base: JobSpec{Protocol: "s:0.1"}, Axes: SweepAxes{Seeds: seeds}}, 64 << 10},
		{"256 cells over a custom run", SweepSpec{Base: JobSpec{Protocol: "s:0.1", Run: custom}, Axes: SweepAxes{Seeds: seeds[:256]}}, 4 << 20},
	} {
		// The least of three runs, so an allocation by some other
		// goroutine during one run does not count.
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := tc.ss.expand()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: sweep accepted", tc.name)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= tc.limit {
			t.Errorf("%s: refusing the sweep allocated %d bytes, want under %d", tc.name, least, tc.limit)
		}
	}
}

// TestSweepCellsShareTheBaseRun: the cells of a sweep over a canonical
// custom: run keep the base's run string instead of each building a
// copy.
func TestSweepCellsShareTheBaseRun(t *testing.T) {
	run := "custom:N=3;I=1;M=1t2r1,2t1r2"
	cells, _, err := SweepSpec{
		Base: JobSpec{Protocol: "s:0.1", Run: run},
		Axes: SweepAxes{Seeds: []uint64{1, 2, 3, 4}},
	}.expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if unsafe.StringData(c.spec.Run) != unsafe.StringData(run) {
			t.Fatalf("cell %v holds its own copy of the run", c.params)
		}
	}
}

func TestSweepExpansionRejects(t *testing.T) {
	bad := []SweepSpec{
		{}, // no protocol and no epsilon axis
		{Base: JobSpec{Engine: "experiment", Experiment: "T3"}},                      // non-mc engine
		{Base: JobSpec{Protocol: "a"}, Axes: SweepAxes{Epsilon: []float64{0.1}}},     // epsilon over a non-s protocol
		{Base: JobSpec{Protocol: "s:0.1"}, Axes: SweepAxes{Rounds: []int{-3}}},       // invalid cell
		{Base: JobSpec{Protocol: "s:0.1"}, Axes: SweepAxes{FaultRate: []float64{2}}}, // bad fault probability
		{
			Base: JobSpec{Protocol: "s:0.1"},
			Axes: SweepAxes{Rounds: seqInts(1, 20), Trials: seqInts(100, 20)}, // 400 > MaxSweepCells
		},
		{Base: JobSpec{Protocol: "salt:0.1"}, Axes: SweepAxes{Epsilon: []float64{0.2}}}, // epsilon over S′ would become S
		{Base: JobSpec{Protocol: "s+2:0.1"}, Axes: SweepAxes{Epsilon: []float64{0.2}}},  // epsilon over S with slack would drop the slack
	}
	for i, ss := range bad {
		if _, _, err := ss.expand(); err == nil {
			t.Errorf("sweep %d accepted", i)
		}
	}
}

func seqInts(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

// TestSweepGoldenKey pins the sweep key of a representative grid. Like
// the job golden keys, this hash is API: it must only move together
// with a sweepKeyVersion (or keyVersion) bump. It also checks the
// content-address property: axis value order and duplicates do not
// change the key, while a different grid does.
func TestSweepGoldenKey(t *testing.T) {
	base := SweepSpec{
		Base: JobSpec{Protocol: "s:0.1", Trials: 2000},
		Axes: SweepAxes{Rounds: []int{8, 10}, FaultRate: []float64{0, 0.25}},
	}
	_, key, err := base.expand()
	if err != nil {
		t.Fatal(err)
	}
	const want = "bd2d2dca94bb2fc3289e4d8b76d773fa020f6fdb330e0ff8eda20cbb1de46376"
	if key != want {
		t.Errorf("sweep key drifted:\n got %s\nwant %s", key, want)
	}

	reordered := SweepSpec{
		Base: JobSpec{Engine: "MC", Protocol: " S:0.1 ", Trials: 2000},
		Axes: SweepAxes{Rounds: []int{10, 8, 10}, FaultRate: []float64{0.25, 0}},
	}
	if _, k, err := reordered.expand(); err != nil || k != key {
		t.Errorf("reordered axes changed the key: %s vs %s (%v)", k, key, err)
	}

	bigger := base
	bigger.Axes.Rounds = []int{8, 10, 12}
	if _, k, err := bigger.expand(); err != nil || k == key {
		t.Errorf("different grid shares the key (%v)", err)
	}
}

// TestSweepEndToEndAndResubmission is the tentpole acceptance test: a
// rounds×fault_rate sweep completes with per-cell Wilson intervals in
// the aggregate table, and re-submitting the identical sweep is served
// entirely from the result cache — zero new engine runs, zero new
// trials.
func TestSweepEndToEndAndResubmission(t *testing.T) {
	s := New(Config{Workers: 2})
	defer drain(t, s)

	spec := SweepSpec{
		Base: JobSpec{Protocol: "s:0.3", Trials: 2000, Seed: 9},
		Axes: SweepAxes{Rounds: []int{6, 8}, FaultRate: []float64{0, 0.5}},
	}
	st, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 4 {
		t.Fatalf("sweep expanded %d cells, want 4", st.Cells)
	}
	fin := waitSweep(t, s, st.ID, 30*time.Second)
	if fin.State != StateDone || fin.Done != 4 {
		t.Fatalf("sweep ended %s done=%d: %+v", fin.State, fin.Done, fin)
	}
	for i, row := range fin.Table {
		if row.State != StateDone {
			t.Fatalf("cell %d state %s: %s", i, row.State, row.Error)
		}
		if row.TA == nil || row.PA == nil || row.NA == nil {
			t.Fatalf("cell %d missing Wilson intervals: %+v", i, row)
		}
		if row.TA.Width() <= 0 || row.TA.Lo < 0 || row.TA.Hi > 1 {
			t.Errorf("cell %d TA interval %+v not a probability interval", i, row.TA)
		}
		if row.Completed != 2000 {
			t.Errorf("cell %d completed %d trials, want 2000", i, row.Completed)
		}
	}

	engineRuns := s.Metrics().EngineRuns.Load()
	trials := s.Metrics().TrialsExecuted.Load()
	if engineRuns != 4 {
		t.Errorf("first sweep ran the engine %d times, want 4", engineRuns)
	}

	// The identical sweep again: every cell is a cache hit.
	again, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Key != fin.Key {
		t.Errorf("resubmitted sweep key %s differs from %s", again.Key, fin.Key)
	}
	fin2 := waitSweep(t, s, again.ID, 10*time.Second)
	if fin2.State != StateDone || fin2.Done != 4 {
		t.Fatalf("resubmitted sweep ended %s done=%d", fin2.State, fin2.Done)
	}
	for i, row := range fin2.Table {
		if !row.Cached {
			t.Errorf("resubmitted cell %d not served from cache: %+v", i, row)
		}
	}
	if n := s.Metrics().EngineRuns.Load(); n != engineRuns {
		t.Errorf("resubmission ran the engine (%d → %d runs)", engineRuns, n)
	}
	if n := s.Metrics().TrialsExecuted.Load(); n != trials {
		t.Errorf("resubmission executed new trials (%d → %d)", trials, n)
	}
}

func waitSweep(t *testing.T, s *Server, id string, timeout time.Duration) *SweepStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.GetSweep(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in state %s (%d/%d done)", id, st.State, st.Done, st.Cells)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHTTPSweepEndpoints drives the sweep over the wire: POST, poll,
// and watch until the aggregate table is terminal.
func TestHTTPSweepEndpoints(t *testing.T) {
	_, ts := testHTTPServer(t, Config{Workers: 2})

	body := `{"base": {"protocol": "s:0.3", "trials": 1000, "seed": 3},
	          "axes": {"rounds": [6, 8], "fault_rate": [0, 0.5]}}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.Cells != 4 {
		t.Fatalf("POST code %d cells %d, want 202 with 4 cells", resp.StatusCode, st.Cells)
	}

	// Watch until terminal; the last NDJSON line is the settled table.
	wresp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if ct := wresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("watch content type %q", ct)
	}
	var last SweepStatus
	sc := bufio.NewScanner(wresp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lines := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || last.State != StateDone || last.Done != 4 {
		t.Fatalf("watch ended after %d lines in %s (%d done)", lines, last.State, last.Done)
	}

	// Poll and list agree with the watch's terminal view.
	var polled SweepStatus
	if getJSON(t, ts.URL+"/v1/sweeps/"+st.ID, &polled) != http.StatusOK || polled.State != StateDone {
		t.Errorf("GET sweep: %+v", polled)
	}
	var all []SweepStatus
	if getJSON(t, ts.URL+"/v1/sweeps", &all) != http.StatusOK || len(all) != 1 {
		t.Errorf("sweep list: %+v", all)
	}
	if getJSON(t, ts.URL+"/v1/sweeps/sw999999", nil) != http.StatusNotFound {
		t.Error("unknown sweep should 404")
	}

	// Invalid sweeps are 400s.
	for _, bad := range []string{
		`{"base": {"protocol": "zzz"}, "axes": {"rounds": [5]}}`,
		`{"axes": {"rounds": [5]}}`,
		`{"bse": {}}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad sweep %q: code %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestSweepRetentionEvictsSettled pins the sweep GC: with retention 1,
// an old settled sweep 404s once a newer one settles, while unsettled
// sweeps survive no matter how old they are.
func TestSweepRetentionEvictsSettled(t *testing.T) {
	s := New(Config{Workers: 2, SweepRetention: 1})
	defer drain(t, s)

	// An unsettled sweep: one slow cell that outlives the whole test.
	slow, err := s.SubmitSweep(SweepSpec{
		Base: JobSpec{Protocol: "s:0.05", Graph: "complete:8", Rounds: 40, Trials: 100_000, Seed: 50},
	})
	if err != nil {
		t.Fatal(err)
	}

	tiny := func(seed uint64) SweepSpec {
		return SweepSpec{Base: JobSpec{Protocol: "s:0.5", Rounds: 4, Trials: 200, Seed: seed}}
	}
	first, err := s.SubmitSweep(tiny(1))
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, s, first.ID, 15*time.Second)
	second, err := s.SubmitSweep(tiny(2))
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, s, second.ID, 15*time.Second)

	// The GC pass runs just after a sweep settles; poll for the eviction.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.GetSweep(first.ID); err == ErrNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("settled sweep past the retention limit never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := s.GetSweep(second.ID); err != nil {
		t.Errorf("newest settled sweep evicted: %v", err)
	}
	if st, err := s.GetSweep(slow.ID); err != nil || st.State.Terminal() {
		t.Errorf("unsettled sweep evicted or settled early (err %v)", err)
	}
	if n := s.Metrics().SweepsEvicted.Load(); n != 1 {
		t.Errorf("sweeps evicted = %d, want 1", n)
	}
	// The evicted sweep is absent from the listing too.
	for _, st := range s.Sweeps() {
		if st.ID == first.ID {
			t.Error("evicted sweep still listed")
		}
	}
}

// TestSweepStatusRendersSettledRowsOnce polls a sweep that is still
// running (its table not yet frozen) but whose cells have all settled.
// The first status renders every row from its job, decoding each done
// body; later polls reuse the kept rows, serve identical JSON, and
// allocate only the status and its table.
func TestSweepStatusRendersSettledRowsOnce(t *testing.T) {
	s := New(Config{Workers: 2})
	defer drain(t, s)
	cells, key, err := SweepSpec{
		Base: JobSpec{Protocol: "s:0.3", Trials: 500, Seed: 4},
		Axes: SweepAxes{Rounds: []int{4, 6, 8}, FaultRate: []float64{0, 0.5}, Seeds: []uint64{1, 2}},
	}.expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells[1:] {
		st, err := s.Submit(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitState(t, s, st.ID, 10*time.Second); fin.State != StateDone {
			t.Fatalf("cell job %s ended %s: %s", st.ID, fin.State, fin.Error)
		}
		if c.job, err = lookup(s, s.jobs, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	// The first cell was refused by a drain that began mid-admission.
	cells[0].errMsg = ErrDraining.Error()
	sw := &Sweep{entry: entry{id: "sw-rows", done: make(chan struct{})}, key: key, cells: cells}

	first, err := json.Marshal(sw.status())
	if err != nil {
		t.Fatal(err)
	}
	var fst SweepStatus
	if err := json.Unmarshal(first, &fst); err != nil {
		t.Fatal(err)
	}
	if fst.Done != len(cells)-1 || fst.Cancelled != 1 || fst.Table[1].TA == nil || fst.Table[1].Completed != 500 {
		t.Fatalf("first status %s", first)
	}
	again, err := json.Marshal(sw.status())
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(first) {
		t.Errorf("kept rows render\n%s\nwant\n%s", again, first)
	}
	if allocs := testing.AllocsPerRun(20, func() { sw.status() }); allocs > 4 {
		t.Errorf("status of %d settled cells allocates %v times, want at most 4", len(cells), allocs)
	}
}
