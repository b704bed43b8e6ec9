package service

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coordattack/internal/mc"
	"coordattack/internal/queue"
)

// slowWrapper injects a fixed per-run delay, so queue order is
// observable: with a slowed single worker, whichever job pops next is
// still popping when the test looks.
func slowWrapper(d time.Duration) func(string, RunFunc) RunFunc {
	return func(name string, next RunFunc) RunFunc {
		return func(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
			time.Sleep(d)
			return next(ctx, spec, workers, progress)
		}
	}
}

// TestFairShareInteractiveBeatsSweep is the fairness acceptance test: a
// saturating MaxSweepCells-cell sweep is queued on a slowed one-worker
// sweep pool, then a single interactive job arrives. Under the old FIFO
// the interactive job would wait behind every cell (engine runs at its
// completion >= 257); with a pool of its own it completes almost
// immediately.
func TestFairShareInteractiveBeatsSweep(t *testing.T) {
	s := New(Config{
		Workers:    1,
		WrapEngine: slowWrapper(3 * time.Millisecond),
	})
	defer drain(t, s)

	seeds := make([]uint64, MaxSweepCells)
	for i := range seeds {
		seeds[i] = uint64(1000 + i)
	}
	sw, err := s.SubmitSweep(SweepSpec{
		Base: JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200},
		Axes: SweepAxes{Seeds: seeds},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cells != MaxSweepCells {
		t.Fatalf("sweep expanded to %d cells, want %d", sw.Cells, MaxSweepCells)
	}

	st, err := s.Submit(JobSpec{Protocol: "s:0.3", Rounds: 2, Trials: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, st.ID, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("interactive job settled %s: %s", fin.State, fin.Error)
	}
	runsAtDone := s.Metrics().EngineRuns.Load()
	swStatus, err := s.GetSweep(sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	if runsAtDone >= MaxSweepCells {
		t.Fatalf("interactive job waited for %d engine runs — starved behind the sweep", runsAtDone)
	}
	if swStatus.State != StateRunning {
		t.Fatalf("sweep already %s when the interactive job finished (runs=%d)", swStatus.State, runsAtDone)
	}
	t.Logf("interactive job done after %d engine runs; sweep still running", runsAtDone)

	// The per-class gauges see the backlog while the sweep drains.
	g := s.gauges()
	if g.QueueSweep == 0 {
		t.Errorf("queue_depth{class=sweep} = 0 while the sweep is running")
	}
	if g.QueueOldestAgeSec <= 0 {
		t.Errorf("queue oldest age = %g with a non-empty backlog", g.QueueOldestAgeSec)
	}
}

// gatePools pins both worker pools of s, configured with Workers: 1
// and WrapEngine: stallWrapper(666, block), until the test closes
// block: an interactive job and a one-cell sweep, whose base differs
// from it so the two do not coalesce, each stall their pool's worker.
func gatePools(t *testing.T, s *Server) {
	t.Helper()
	if _, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: 666}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitSweep(SweepSpec{
		Base: JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 300},
		Axes: SweepAxes{Seeds: []uint64{666}},
	}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the gate jobs to hold both pools", func() bool {
		return s.pool(queue.ClassInteractive).running.Load() == 1 && s.pool(queue.ClassSweep).running.Load() == 1
	})
}

// TestInteractiveSkipsBusySweepPool is the pool acceptance test: with
// one worker per class, a sweep whose cells all stall in the engine
// holds the sweep pool, and an interactive job submitted after it
// still settles done at once — while every cell is still stalled and
// none has settled. A single pool would hand the worker to a cell and
// leave the interactive job waiting behind it.
func TestInteractiveSkipsBusySweepPool(t *testing.T) {
	release := make(chan struct{})
	var stalled atomic.Int64
	s := New(Config{
		Workers:          1,
		WatchdogInterval: -1,
		WrapEngine: func(name string, next RunFunc) RunFunc {
			return func(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
				if spec.Protocol == "s:0.5" {
					stalled.Add(1)
					<-release
				}
				return next(ctx, spec, workers, progress)
			}
		},
	})
	defer drain(t, s)
	defer close(release)

	sw, err := s.SubmitSweep(SweepSpec{
		Base: JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200},
		Axes: SweepAxes{Seeds: []uint64{1, 2, 3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "a cell to stall the sweep pool", func() bool { return stalled.Load() == 1 })
	st, err := s.Submit(JobSpec{Protocol: "s:0.3", Rounds: 2, Trials: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitState(t, s, st.ID, 10*time.Second); fin.State != StateDone {
		t.Fatalf("interactive job settled %s: %s", fin.State, fin.Error)
	}
	swStatus, err := s.GetSweep(sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	if settled := swStatus.Done + swStatus.Failed + swStatus.Cancelled; swStatus.State != StateRunning || settled != 0 {
		t.Fatalf("sweep %s with %d cells settled when the interactive job finished, want running with none", swStatus.State, settled)
	}
	if n := stalled.Load(); n != 1 {
		t.Fatalf("%d cells reached the engine, want the one holding the sweep pool", n)
	}

	// Each pool's running jobs are their own /metrics series.
	var buf bytes.Buffer
	s.metrics.WritePrometheus(&buf, s.gauges())
	for _, want := range []string{
		`coordd_jobs_running{class="interactive"} 0` + "\n",
		`coordd_jobs_running{class="sweep"} 1` + "\n",
		`coordd_queue_depth{class="sweep"} 3` + "\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Only the stalled sweep is left for the drain to wait out.
	if _, err := s.CancelSweep(sw.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSweepLeavesInteractiveCapacity: at the default QueueDepth, a
// MaxSweepCells sweep queued behind a held sweep pool leaves the
// interactive class its whole bound — QueueDepth submissions are
// admitted, and the next one is refused, so the bound still holds per
// class.
func TestSweepLeavesInteractiveCapacity(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{Workers: 1, WatchdogInterval: -1, WrapEngine: stallWrapper(666, block)})
	defer drain(t, s)
	defer close(block)

	gatePools(t, s)
	seeds := make([]uint64, MaxSweepCells)
	for i := range seeds {
		seeds[i] = uint64(1000 + i)
	}
	sw, err := s.SubmitSweep(SweepSpec{
		Base: JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200},
		Axes: SweepAxes{Seeds: seeds},
	})
	if err != nil {
		t.Fatal(err)
	}
	depth := s.cfg.QueueDepth
	if d := s.pool(queue.ClassSweep).sched.Depth(); d != MaxSweepCells {
		t.Fatalf("sweep pool holds %d jobs, want the sweep's %d", d, MaxSweepCells)
	}
	for i := 1; i <= depth; i++ {
		if _, err := s.Submit(JobSpec{Protocol: "s:0.3", Rounds: 2, Trials: 200, Seed: uint64(i)}); err != nil {
			t.Fatalf("interactive submission %d of %d during the sweep: %v", i, depth, err)
		}
	}
	if _, err := s.Submit(JobSpec{Protocol: "s:0.3", Rounds: 2, Trials: 200, Seed: uint64(depth + 1)}); err != ErrQueueFull {
		t.Fatalf("interactive submission %d: err = %v, want ErrQueueFull", depth+1, err)
	}
	// Only the gate jobs' runs are left for the drain to wait out.
	if _, err := s.CancelSweep(sw.ID); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSweepsKeepTheBound: sweeps submitted at once are
// admitted one at a time, so with both pools held only the first passes
// the depth check, and the sweep class stays below QueueDepth +
// MaxSweepCells however many sweeps race.
func TestConcurrentSweepsKeepTheBound(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4, WatchdogInterval: -1, WrapEngine: stallWrapper(666, block)})
	defer drain(t, s)
	defer close(block)

	gatePools(t, s)
	const sweeps, cells = 8, 16
	var admitted, refused atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seeds := make([]uint64, cells)
			for k := range seeds {
				seeds[k] = uint64(i*cells + k + 1)
			}
			_, err := s.SubmitSweep(SweepSpec{
				Base: JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200},
				Axes: SweepAxes{Seeds: seeds},
			})
			switch err {
			case nil:
				admitted.Add(1)
			case ErrQueueFull:
				refused.Add(1)
			default:
				t.Errorf("sweep %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if admitted.Load() != 1 || refused.Load() != sweeps-1 {
		t.Fatalf("%d sweeps admitted and %d refused, want 1 and %d", admitted.Load(), refused.Load(), sweeps-1)
	}
	if d := s.pool(queue.ClassSweep).sched.Depth(); d != cells {
		t.Fatalf("sweep class holds %d jobs, want the one admitted sweep's %d", d, cells)
	}
}

// TestSweepCellClockStartsAtRun: a sweep admitted whole may queue many
// more cells than QueueDepth, so a cell's JobTimeout counts from when a
// worker takes it, not from admission. Here the 32 cells of 20 ms each
// outlast the 200 ms timeout on one worker, and every cell still ends
// done.
func TestSweepCellClockStartsAtRun(t *testing.T) {
	s := New(Config{
		Workers:    1,
		QueueDepth: 4,
		JobTimeout: 200 * time.Millisecond,
		WrapEngine: slowWrapper(20 * time.Millisecond),
	})
	defer drain(t, s)

	seeds := make([]uint64, 32)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	sw, err := s.SubmitSweep(SweepSpec{
		Base: JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200},
		Axes: SweepAxes{Seeds: seeds},
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitSweep(t, s, sw.ID, 30*time.Second)
	for i, row := range fin.Table {
		if row.State != StateDone {
			t.Errorf("row %d (%v) ended %s: %s", i, row.Params, row.State, row.Error)
		}
	}
}

// TestPriorityOrdersWithinFlow: with the single worker held by a gate
// job, a high-priority submission leapfrogs an earlier low-priority one.
func TestPriorityOrdersWithinFlow(t *testing.T) {
	block := make(chan struct{})
	var mu sync.Mutex
	var order []uint64
	s := New(Config{
		Workers:          1,
		WatchdogInterval: -1,
		WrapEngine: func(name string, next RunFunc) RunFunc {
			return func(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
				mu.Lock()
				order = append(order, spec.Seed)
				mu.Unlock()
				if spec.Seed == 666 {
					<-block
				}
				return next(ctx, spec, workers, progress)
			}
		},
	})
	defer drain(t, s)

	gate, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: 666})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the gate job holds the worker, so both later jobs are
	// pending together when the worker next pops.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s.Get(gate.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	low, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: 100, Priority: -1})
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: 200, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	close(block)
	waitState(t, s, low.ID, 10*time.Second)
	waitState(t, s, high.ID, 10*time.Second)

	mu.Lock()
	got := append([]uint64(nil), order...)
	mu.Unlock()
	want := []uint64{666, 200, 100}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("execution order %v, want %v", got, want)
	}
}

// TestPriorityExcludedFromKey: jobs differing only in priority coalesce
// onto one engine run, like TimeoutSec.
func TestPriorityExcludedFromKey(t *testing.T) {
	a, err := JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: 3}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: 3, Priority: 9}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatal("priority changed the cache key")
	}
	if _, err := (JobSpec{Protocol: "s:0.5", Priority: 101}).Canonicalize(); err == nil {
		t.Fatal("priority 101 accepted, want out-of-range rejection")
	}
}

// TestJournalRestartReplay: jobs accepted but unfinished when the
// daemon dies un-drained are re-admitted from the journal on restart
// and each runs exactly once.
func TestJournalRestartReplay(t *testing.T) {
	qdir := filepath.Join(t.TempDir(), "queue")
	j1, err := queue.OpenJournal(qdir, queue.JournalOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j1.Close)
	block := make(chan struct{})
	s1 := New(Config{
		Workers:          1,
		Journal:          j1,
		WatchdogInterval: -1,
		WrapEngine:       stallWrapper(666, block),
	})
	// The gate job occupies the only worker; the rest stay pending —
	// accepted, journaled, never started.
	gate, err := s1.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: 666})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s1.Get(gate.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	keys := make(map[string]bool)
	keys[gate.Key] = true
	for seed := uint64(1); seed <= 3; seed++ {
		st, err := s1.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		keys[st.Key] = true
	}
	if st := j1.Stats(); st.Pending != 4 {
		t.Fatalf("journal pending = %d before crash, want 4", st.Pending)
	}
	// Simulated SIGKILL: s1 is abandoned un-drained, its journal handle
	// left open, exactly as a dead process would leave them.
	t.Cleanup(func() {
		close(block)
		drain(t, s1)
	})

	j2, err := queue.OpenJournal(qdir, queue.JournalOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j2.Close)
	if got := len(j2.Pending()); got != 4 {
		t.Fatalf("journal recovered %d pending records, want 4", got)
	}
	s2 := New(Config{Workers: 2, Journal: j2})
	defer drain(t, s2)
	if got := s2.Metrics().QueueReplayed.Load(); got != 4 {
		t.Fatalf("queue_replayed_total = %d, want 4", got)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		jobs := s2.Jobs()
		settled := 0
		for _, st := range jobs {
			if st.State.Terminal() {
				settled++
			}
		}
		if len(jobs) == 4 && settled == 4 {
			for _, st := range jobs {
				if st.State != StateDone {
					t.Fatalf("replayed job %s settled %s: %s", st.ID, st.State, st.Error)
				}
				if !keys[st.Key] {
					t.Fatalf("replayed job %s has unknown key %s", st.ID, st.Key)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed jobs did not settle: %d jobs, %d settled", len(jobs), settled)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Exactly once: four distinct keys, four engine runs, no pending
	// journal entries left to resurrect.
	if runs := s2.Metrics().EngineRuns.Load(); runs != 4 {
		t.Fatalf("engine runs after replay = %d, want 4", runs)
	}
	if st := j2.Stats(); st.Pending != 0 {
		t.Fatalf("journal pending = %d after settlement, want 0", st.Pending)
	}
}

// reopenedJournal journals an accept of spec under each key, then
// reopens the journal, so the records are pending for the next server
// to replay.
func reopenedJournal(t *testing.T, spec JobSpec, keys ...string) *queue.Journal {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "queue")
	j, err := queue.OpenJournal(dir, queue.JournalOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if err := j.Accept(queue.Record{Key: key, Flow: "interactive", Class: string(queue.ClassInteractive), Spec: specJSON}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if j, err = queue.OpenJournal(dir, queue.JournalOptions{Logf: t.Logf}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j.Close)
	return j
}

// TestJournalReplayCoalescesDuplicateKeys: two pending records under
// different keys whose specs canonicalize to one key — what a
// canonicalization change leaves behind — replay through the shared
// admission, so the second coalesces onto the first: one engine run for
// the one key, and no record left pending.
func TestJournalReplayCoalescesDuplicateKeys(t *testing.T) {
	canon, err := JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: 7}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	jl := reopenedJournal(t, canon, strings.Repeat("a", 64), strings.Repeat("b", 64))
	s := New(Config{Workers: 2, Journal: jl})
	waitUntil(t, "both replayed jobs to settle", func() bool {
		jobs := s.Jobs()
		return len(jobs) == 2 && jobs[0].State.Terminal() && jobs[1].State.Terminal()
	})
	// Drain waits out the workers, so the leader's settle — tombstone
	// included — has finished.
	drain(t, s)
	for _, st := range s.Jobs() {
		if st.State != StateDone || st.Key != canon.Key() {
			t.Fatalf("replayed job %s: state %s key %s, want done under %s", st.ID, st.State, st.Key, canon.Key())
		}
	}
	if runs := s.Metrics().EngineRuns.Load(); runs != 1 {
		t.Fatalf("engine runs = %d for one key, want 1", runs)
	}
	if c := s.Metrics().JobsCoalesced.Load(); c != 1 {
		t.Fatalf("jobs coalesced = %d, want 1", c)
	}
	if p := jl.Stats().Pending; p != 0 {
		t.Fatalf("journal pending = %d after settlement, want 0", p)
	}
}
