package service

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coordattack/internal/mc"
	"coordattack/internal/queue"
	"coordattack/internal/store"
)

// blockingEngine is a test double that parks every run until released,
// so a burst of identical submissions is guaranteed to overlap one
// in-flight leader. Runs counts actual executions independently of the
// server's own EngineRuns metric.
type blockingEngine struct {
	release chan struct{}
	runs    atomic.Int64
	body    json.RawMessage
	err     error
}

func (e *blockingEngine) run(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
	e.runs.Add(1)
	select {
	case <-e.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return e.body, e.err
}

// installEngine swaps the mc engine before any job is submitted; the
// queue channel orders the write before every worker read.
func installEngine(s *Server, run RunFunc) { s.engines[EngineMC] = run }

// TestCoalescingConcurrentIdenticalSubmissions is the throughput
// acceptance check: 8 concurrent submissions of one canonical spec run
// the engine exactly once — one leader, seven coalesced followers, all
// settling with bit-identical bodies. Run under -race this also proves
// the registry handoff is properly synchronized.
func TestCoalescingConcurrentIdenticalSubmissions(t *testing.T) {
	s := New(Config{Workers: 2})
	defer drain(t, s)
	be := &blockingEngine{release: make(chan struct{}), body: json.RawMessage(`{"ok":true}`)}
	installEngine(s, be.run)

	spec := JobSpec{Protocol: "s:0.3", Trials: 2000, Seed: 9}
	const burst = 8
	ids := make([]string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(spec)
			if err != nil {
				t.Errorf("submission %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	close(be.release)

	leaders, followers := 0, 0
	var body json.RawMessage
	for _, id := range ids {
		fin := waitState(t, s, id, 10*time.Second)
		if fin.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, fin.State, fin.Error)
		}
		if fin.Coalesced {
			followers++
		} else {
			leaders++
		}
		if body == nil {
			body = fin.Result
		} else if !bytes.Equal(body, fin.Result) {
			t.Errorf("job %s body diverged:\n%s\nvs\n%s", id, fin.Result, body)
		}
	}
	if leaders != 1 || followers != burst-1 {
		t.Errorf("leaders=%d followers=%d, want 1 and %d", leaders, followers, burst-1)
	}
	if n := be.runs.Load(); n != 1 {
		t.Errorf("engine ran %d times, want exactly 1", n)
	}
	m := s.Metrics()
	if n := m.EngineRuns.Load(); n != 1 {
		t.Errorf("EngineRuns = %d, want 1", n)
	}
	if n := m.JobsCoalesced.Load(); n != int64(burst-1) {
		t.Errorf("JobsCoalesced = %d, want %d", n, burst-1)
	}
	if n := m.JobsCompleted.Load(); n != burst {
		t.Errorf("JobsCompleted = %d, want %d (followers count as completions)", n, burst)
	}

	// Once the leader settled, the same spec is a plain cache hit: no
	// new engine run, no coalescing.
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Coalesced || again.State != StateDone {
		t.Errorf("post-settle resubmission: %+v, want served from cache", again)
	}
	if n := m.EngineRuns.Load(); n != 1 {
		t.Errorf("resubmission re-ran the engine (%d runs)", n)
	}
}

// TestCoalescedFollowerMirrorsFailure: a failing leader propagates its
// terminal state and error to every follower — nothing enters the
// cache, so a later submission runs the engine again.
func TestCoalescedFollowerMirrorsFailure(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	be := &blockingEngine{release: make(chan struct{}), err: context.DeadlineExceeded}
	installEngine(s, be.run)

	spec := JobSpec{Protocol: "s:0.4", Trials: 1000, Seed: 2}
	leader, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the leader is running, so the next submission must
	// coalesce rather than race it to the queue.
	deadline := time.Now().Add(5 * time.Second)
	for be.runs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	follower, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Coalesced {
		t.Fatalf("second submission did not coalesce: %+v", follower)
	}
	close(be.release)

	lf := waitState(t, s, leader.ID, 10*time.Second)
	ff := waitState(t, s, follower.ID, 10*time.Second)
	if lf.State != StateFailed || ff.State != StateFailed {
		t.Fatalf("leader=%s follower=%s, want both failed", lf.State, ff.State)
	}
	if ff.Error != lf.Error {
		t.Errorf("follower error %q differs from leader's %q", ff.Error, lf.Error)
	}
	if _, ok := s.cache.Get(lf.Key); ok {
		t.Error("failed body entered the cache")
	}
}

// TestCancelFollowerLeavesLeader: cancelling a coalesced follower
// detaches only that follower; the leader still completes and so do
// its other followers.
func TestCancelFollowerLeavesLeader(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	be := &blockingEngine{release: make(chan struct{}), body: json.RawMessage(`{"ok":true}`)}
	installEngine(s, be.run)

	spec := JobSpec{Protocol: "s:0.5", Trials: 1000, Seed: 6}
	leader, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for be.runs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	f1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !f1.Coalesced || !f2.Coalesced {
		t.Fatalf("followers did not coalesce: %+v %+v", f1, f2)
	}
	if st, err := s.Cancel(f1.ID); err != nil || st.State != StateCancelled {
		t.Fatalf("cancel follower: %+v, %v", st, err)
	}
	close(be.release)

	if fin := waitState(t, s, leader.ID, 10*time.Second); fin.State != StateDone {
		t.Errorf("leader ended %s after follower cancel", fin.State)
	}
	if fin := waitState(t, s, f2.ID, 10*time.Second); fin.State != StateDone {
		t.Errorf("surviving follower ended %s", fin.State)
	}
	if fin, err := s.Get(f1.ID); err != nil || fin.State != StateCancelled {
		t.Errorf("cancelled follower state %+v, %v", fin, err)
	}
}

// TestTrialWorkerBudgetDefaults pins the per-job parallelism budget
// computation: GOMAXPROCS split across the pool, floored at 1.
func TestTrialWorkerBudgetDefaults(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if got := (Config{Workers: 2}).withDefaults().trialWorkers; got != max(1, procs/2) {
		t.Errorf("Workers=2: trialWorkers=%d, want %d", got, max(1, procs/2))
	}
	if got := (Config{Workers: 4 * procs}).withDefaults().trialWorkers; got != 1 {
		t.Errorf("oversubscribed pool: trialWorkers=%d, want floor of 1", got)
	}
}

// captureEngine records the trial-worker budget the scheduler hands it.
type captureEngine struct {
	workers chan int
}

func (e captureEngine) run(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
	e.workers <- workers
	return json.RawMessage(`{}`), nil
}

// TestTrialWorkerBudgetReachesEngine checks the scheduler→engine wiring
// of the budget (the mc-side contract that the budget bounds concurrent
// trials is mc's TestWorkerBudgetRespected).
func TestTrialWorkerBudgetReachesEngine(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	ce := captureEngine{workers: make(chan int, 1)}
	installEngine(s, ce.run)
	if _, err := s.Submit(JobSpec{Protocol: "s:0.3", Trials: 500}); err != nil {
		t.Fatal(err)
	}
	select {
	case w := <-ce.workers:
		if want := runtime.GOMAXPROCS(0); w != want {
			t.Errorf("engine received workers=%d, want the derived budget %d", w, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine never ran")
	}
}

// TestDrainRefusesCoalescing: a draining server refuses a submission
// whose key is already in flight, as it refuses a fresh key, instead of
// attaching a follower that Drain would have to wait out.
func TestDrainRefusesCoalescing(t *testing.T) {
	s := New(Config{Workers: 1, WatchdogInterval: -1})
	be := &blockingEngine{release: make(chan struct{}), body: json.RawMessage(`{"ok":true}`)}
	installEngine(s, be.run)

	spec := JobSpec{Protocol: "s:0.3", Trials: 2000, Seed: 9}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the job to hold the worker", func() bool { return s.pool(queue.ClassInteractive).running.Load() == 1 })
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitUntil(t, "the drain to start", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	coalesced := s.Metrics().JobsCoalesced.Load()
	if _, err := s.Submit(spec); err != ErrDraining {
		t.Errorf("running key while draining: err = %v, want ErrDraining", err)
	}
	if got := s.Metrics().JobsCoalesced.Load(); got != coalesced {
		t.Errorf("jobs_coalesced moved %d → %d while draining", coalesced, got)
	}
	if _, err := s.Submit(JobSpec{Protocol: "s:0.3", Trials: 2000, Seed: 10}); err != ErrDraining {
		t.Errorf("fresh key while draining: err = %v, want ErrDraining", err)
	}
	close(be.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if fin, err := s.Get(st.ID); err != nil || fin.State != StateDone {
		t.Fatalf("running job after drain: %+v, %v", fin, err)
	}
}

// TestDrainServesResultSettledMidSubmit: a result that lands between
// submit's unlocked lookup and its locked re-check is answered as a
// cache hit, also when the server began draining in between: it is a
// finished result, not new work.
func TestDrainServesResultSettledMidSubmit(t *testing.T) {
	fs := &gatedFS{FS: store.DiskFS(), entered: make(chan struct{}), release: make(chan struct{})}
	st, err := store.Open(t.TempDir(), store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: st, WatchdogInterval: -1})
	spec := JobSpec{Protocol: "s:0.3", Trials: 2000, Seed: 9}
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}

	type submitted struct {
		st  *Status
		err error
	}
	done := make(chan submitted, 1)
	fs.armed.Store(true)
	go func() {
		st, err := s.Submit(spec)
		done <- submitted{st, err}
	}()
	select {
	case <-fs.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("submit never reached the store lookup")
	}
	drain(t, s)
	// The leader's settle, after the store lookup missed: its body is
	// cached and its key has left the coalescing registry.
	s.cache.Put(canon.Key(), []byte(`{"ok":true}`))
	close(fs.release)
	select {
	case sub := <-done:
		if sub.err != nil {
			t.Fatalf("submit of a settled key while draining: %v, want a cache hit", sub.err)
		}
		if !sub.st.Cached || sub.st.State != StateDone {
			t.Fatalf("submit of a settled key while draining: %+v, want a done cache hit", sub.st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submit did not return after the store lookup was released")
	}
}
