package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/mc"
	"coordattack/internal/queue"
)

// awaitClosed waits for a job's or a sweep's done channel, which stays
// reachable after the registry forgets the id.
func awaitClosed(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("never settled")
	}
}

// TestRetentionPastMillionIDs pins eviction order once ids gain a
// digit: "j1000000" sorts before "j999999" as a string, but it is the
// newer job. The newest settled jobs must stay queryable and the
// listings must stay oldest first.
func TestRetentionPastMillionIDs(t *testing.T) {
	s := New(Config{Workers: 2, JobRetention: 4, WatchdogInterval: -1})
	defer drain(t, s)
	s.mu.Lock()
	s.nextID = 999995
	s.mu.Unlock()

	var ids []string
	for seed := uint64(1); seed <= 12; seed++ {
		st, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		awaitClosed(t, j.done)
		ids = append(ids, st.ID)
	}
	if ids[0] != "j999996" || ids[11] != "j1000007" {
		t.Fatalf("ids run %s..%s, want j999996..j1000007", ids[0], ids[11])
	}
	waitUntil(t, "8 jobs evicted", func() bool { return s.Metrics().JobsEvicted.Load() == 8 })
	for _, id := range ids[8:] {
		if _, err := s.Get(id); err != nil {
			t.Errorf("newest job %s: %v", id, err)
		}
	}
	var listed []string
	for _, st := range s.Jobs() {
		listed = append(listed, st.ID)
	}
	if want := strings.Join(ids[8:], " "); strings.Join(listed, " ") != want {
		t.Errorf("Jobs() lists %v, want %s", listed, want)
	}

	sw := New(Config{Workers: 2, SweepRetention: 1, WatchdogInterval: -1})
	defer drain(t, sw)
	sw.mu.Lock()
	sw.nextID = 999995
	sw.mu.Unlock()
	var sweepIDs []string
	for seed := uint64(1); seed <= 4; seed++ {
		st, err := sw.SubmitSweep(SweepSpec{Base: JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		swp, err := sw.sweep(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		awaitClosed(t, swp.done)
		sweepIDs = append(sweepIDs, st.ID)
		want := int64(len(sweepIDs) - 1)
		waitUntil(t, fmt.Sprintf("%d sweeps evicted", want), func() bool { return sw.Metrics().SweepsEvicted.Load() == want })
	}
	if sweepIDs[0] != "sw999996" || sweepIDs[3] != "sw1000002" {
		t.Fatalf("sweep ids run %s..%s, want sw999996..sw1000002", sweepIDs[0], sweepIDs[3])
	}
	newest := sweepIDs[3]
	if _, err := sw.GetSweep(newest); err != nil {
		t.Errorf("newest sweep %s: %v", newest, err)
	}
	var listedSweeps []string
	for _, st := range sw.Sweeps() {
		listedSweeps = append(listedSweeps, st.ID)
	}
	if len(listedSweeps) != 1 || listedSweeps[0] != newest {
		t.Errorf("Sweeps() lists %v, want only %s", listedSweeps, newest)
	}
}

// TestSettledSweepOutlivesEvictedCells: a sweep whose cell jobs have
// left the jobs registry still reads done, with every row done, and its
// watch stream still ends with the terminal line.
func TestSettledSweepOutlivesEvictedCells(t *testing.T) {
	s, ts := testHTTPServer(t, Config{Workers: 2, JobRetention: 2, WatchdogInterval: -1})
	st, err := s.SubmitSweep(SweepSpec{
		Base: JobSpec{Protocol: "s:0.5", Rounds: 4, Trials: 200},
		Axes: SweepAxes{Seeds: []uint64{1, 2, 3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := s.sweep(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	awaitClosed(t, sw.done)
	check := func(when string) {
		t.Helper()
		got, err := s.GetSweep(st.ID)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		done := 0
		for _, row := range got.Table {
			if row.State == StateDone && row.TA != nil {
				done++
			}
		}
		if got.State != StateDone || got.Done != 4 || done != 4 {
			t.Errorf("%s: sweep %s with %d done (%d done rows), want done with 4", when, got.State, got.Done, done)
		}
	}
	check("just settled")
	for seed := uint64(11); seed <= 14; seed++ {
		js, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 4, Trials: 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, js.ID, 10*time.Second)
	}
	check("after four more jobs")

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sweeps/"+st.ID+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last SweepStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("watch did not end within a second: %v (last state %s)", err, last.State)
	}
	if last.State != StateDone || last.Done != 4 {
		t.Errorf("watch ended in %s with %d done, want done with 4", last.State, last.Done)
	}
}

// partialEngine waits out the job's context and returns a partial body
// with the context error, as mc does on a deadline.
type partialEngine struct{}

func (partialEngine) run(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
	<-ctx.Done()
	return json.RawMessage(`{"partial":true}`), ctx.Err()
}

// TestSettleBookkeeping covers every terminal path of a job: each row's
// jobs settle in exactly one of the completed/failed/cancelled counters
// (a local cache or store hit in none), and afterwards no key the row
// touched has a pending journal record or a coalescing-registry entry.
func TestSettleBookkeeping(t *testing.T) {
	type counts struct{ completed, failed, cancelled int64 }
	boot := func(t *testing.T, cfg Config) *Server {
		s := New(cfg)
		t.Cleanup(func() { drain(t, s) })
		return s
	}
	spec := func(seed uint64) JobSpec { return JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: seed} }
	submit := func(t *testing.T, s *Server, seed uint64) *Status {
		t.Helper()
		st, err := s.Submit(spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	settles := func(t *testing.T, s *Server, id string, want State) *Status {
		t.Helper()
		st := waitState(t, s, id, 10*time.Second)
		if st.State != want {
			t.Fatalf("job %s settled %s (%s), want %s", id, st.State, st.Error, want)
		}
		return st
	}
	// leaderRunning submits a leader on a blocking engine and waits for
	// it to occupy the single worker.
	leaderRunning := func(t *testing.T, cfg Config, be *blockingEngine) (*Server, *Status) {
		cfg.Workers = 1
		s := boot(t, cfg)
		installEngine(s, be.run)
		leader := submit(t, s, 1)
		waitUntil(t, "leader to start", func() bool { return be.runs.Load() > 0 })
		return s, leader
	}
	follower := func(t *testing.T, s *Server) *Status {
		t.Helper()
		f := submit(t, s, 1)
		if !f.Coalesced {
			t.Fatalf("second submission did not coalesce: %+v", f)
		}
		return f
	}
	okBody := json.RawMessage(`{"ok":true}`)
	engineErr := errors.New("engine broke")

	rows := []struct {
		name string
		want counts
		run  func(t *testing.T, cfg Config) (*Server, []string)
	}{
		{"engine done", counts{1, 0, 0}, func(t *testing.T, cfg Config) (*Server, []string) {
			s := boot(t, cfg)
			st := submit(t, s, 1)
			settles(t, s, st.ID, StateDone)
			return s, []string{st.Key}
		}},
		{"engine error", counts{0, 1, 0}, func(t *testing.T, cfg Config) (*Server, []string) {
			s := boot(t, cfg)
			be := &blockingEngine{release: make(chan struct{}), err: engineErr}
			close(be.release)
			installEngine(s, be.run)
			st := submit(t, s, 1)
			settles(t, s, st.ID, StateFailed)
			return s, []string{st.Key}
		}},
		{"engine panic", counts{0, 1, 0}, func(t *testing.T, cfg Config) (*Server, []string) {
			s := boot(t, cfg)
			s.engines[EngineMC] = panicEngine{inner: runMC}.run
			st := submit(t, s, panicSeed)
			settles(t, s, st.ID, StateFailed)
			return s, []string{st.Key}
		}},
		{"deadline with partial body", counts{0, 0, 1}, func(t *testing.T, cfg Config) (*Server, []string) {
			cfg.JobTimeout = 50 * time.Millisecond
			s := boot(t, cfg)
			s.engines[EngineMC] = partialEngine{}.run
			st := submit(t, s, 1)
			if fin := settles(t, s, st.ID, StateCancelled); len(fin.Result) == 0 {
				t.Error("deadline-expired job lost its partial body")
			}
			return s, []string{st.Key}
		}},
		{"queued cancel", counts{1, 0, 1}, func(t *testing.T, cfg Config) (*Server, []string) {
			be := &blockingEngine{release: make(chan struct{}), body: okBody}
			s, gate := leaderRunning(t, cfg, be)
			queued := submit(t, s, 2)
			if st, err := s.Cancel(queued.ID); err != nil || st.State != StateCancelled {
				t.Fatalf("cancel queued job: %+v, %v", st, err)
			}
			close(be.release)
			settles(t, s, gate.ID, StateDone)
			return s, []string{gate.Key, queued.Key}
		}},
		{"follower of a done leader", counts{2, 0, 0}, func(t *testing.T, cfg Config) (*Server, []string) {
			be := &blockingEngine{release: make(chan struct{}), body: okBody}
			s, leader := leaderRunning(t, cfg, be)
			f := follower(t, s)
			close(be.release)
			settles(t, s, leader.ID, StateDone)
			settles(t, s, f.ID, StateDone)
			return s, []string{leader.Key}
		}},
		{"follower of a failed leader", counts{0, 2, 0}, func(t *testing.T, cfg Config) (*Server, []string) {
			be := &blockingEngine{release: make(chan struct{}), err: engineErr}
			s, leader := leaderRunning(t, cfg, be)
			f := follower(t, s)
			close(be.release)
			settles(t, s, leader.ID, StateFailed)
			settles(t, s, f.ID, StateFailed)
			return s, []string{leader.Key}
		}},
		{"follower's own cancel", counts{1, 0, 1}, func(t *testing.T, cfg Config) (*Server, []string) {
			be := &blockingEngine{release: make(chan struct{}), body: okBody}
			s, leader := leaderRunning(t, cfg, be)
			f := follower(t, s)
			if st, err := s.Cancel(f.ID); err != nil || st.State != StateCancelled {
				t.Fatalf("cancel follower: %+v, %v", st, err)
			}
			close(be.release)
			settles(t, s, leader.ID, StateDone)
			return s, []string{leader.Key}
		}},
		{"watchdog kill", counts{0, 1, 0}, func(t *testing.T, cfg Config) (*Server, []string) {
			block, returned := make(chan struct{}), make(chan struct{})
			stall := stallWrapper(1, block)
			cfg.Workers = 1
			cfg.JobTimeout = 50 * time.Millisecond
			cfg.WatchdogInterval = 20 * time.Millisecond
			cfg.WatchdogGrace = 50 * time.Millisecond
			cfg.WrapEngine = func(name string, next RunFunc) RunFunc {
				run := stall(name, next)
				return func(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
					defer close(returned)
					return run(ctx, spec, workers, progress)
				}
			}
			s := boot(t, cfg)
			st := submit(t, s, 1)
			if fin := settles(t, s, st.ID, StateFailed); !strings.Contains(fin.Error, "watchdog") {
				t.Errorf("killed job error %q does not name the watchdog", fin.Error)
			}
			// Let the wedged engine return: its late result must count
			// nothing.
			close(block)
			awaitClosed(t, returned)
			return s, []string{st.Key}
		}},
		{"cache hit", counts{0, 0, 0}, func(t *testing.T, cfg Config) (*Server, []string) {
			s := boot(t, cfg)
			canon, err := spec(1).Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			s.cache.Put(canon.Key(), okBody)
			if st := submit(t, s, 1); st.State != StateDone || !st.Cached {
				t.Fatalf("cache hit: %+v", st)
			}
			return s, []string{canon.Key()}
		}},
		{"store hit", counts{0, 0, 0}, func(t *testing.T, cfg Config) (*Server, []string) {
			cfg.Store = openStore(t, t.TempDir())
			s := boot(t, cfg)
			canon, err := spec(1).Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			if err := cfg.Store.Put(canon.Key(), okBody); err != nil {
				t.Fatal(err)
			}
			if st := submit(t, s, 1); st.State != StateDone || !st.Cached {
				t.Fatalf("store hit: %+v", st)
			}
			return s, []string{canon.Key()}
		}},
		{"peer hit", counts{1, 0, 0}, func(t *testing.T, cfg Config) (*Server, []string) {
			cfg.Workers, cfg.StealInterval = 1, -1
			a, _, _, addrB := clusterPair(t, cfg, Config{Workers: 1, StealInterval: -1})
			ps := specOwnedBy(t, a.cluster, addrB, 60)
			canon, err := ps.Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			key := canon.Key()
			req, _ := http.NewRequest(http.MethodPut, addrB+cluster.ResultsPathPrefix+key, strings.NewReader(string(okBody)))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			st, err := a.Submit(ps)
			if err != nil {
				t.Fatal(err)
			}
			settles(t, a, st.ID, StateDone)
			if got := a.Metrics().PeerHits.Load(); got != 1 {
				t.Errorf("peer hits = %d, want 1", got)
			}
			return a, []string{key}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			j, err := queue.OpenJournal(filepath.Join(t.TempDir(), "queue"), queue.JournalOptions{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(j.Close)
			s, keys := row.run(t, Config{Workers: 2, Journal: j, WatchdogInterval: -1})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			m := s.Metrics()
			if got := (counts{m.JobsCompleted.Load(), m.JobsFailed.Load(), m.JobsCancelled.Load()}); got != row.want {
				t.Errorf("completed/failed/cancelled = %+v, want %+v", got, row.want)
			}
			if n := j.Stats().Pending; n != 0 {
				t.Errorf("journal holds %d pending records after settlement", n)
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, key := range keys {
				if _, ok := s.inflight[key]; ok {
					t.Errorf("key %.12s still in the coalescing registry", key)
				}
			}
		})
	}
}
