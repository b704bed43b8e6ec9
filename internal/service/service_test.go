package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"coordattack/internal/stats"
)

// drain shuts a test server down, cancelling whatever is still running.
func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, s *Server, id string, timeout time.Duration) *Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitRunsAndMemoizes(t *testing.T) {
	s := New(Config{Workers: 2})
	defer drain(t, s)

	spec := JobSpec{Protocol: "s:0.3", Trials: 2000, Seed: 9}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != StateQueued {
		t.Fatalf("first submission state %s, want queued", first.State)
	}
	fin := waitState(t, s, first.ID, 10*time.Second)
	if fin.State != StateDone || fin.Cached {
		t.Fatalf("first job finished %s cached=%v", fin.State, fin.Cached)
	}
	if fin.Progress.Completed != 2000 || fin.Progress.CIWidth >= 1 {
		t.Errorf("final progress %+v not settled", fin.Progress)
	}

	// The identical computation, spelled differently: answered from the
	// cache, bit-identical to the first result.
	second, err := s.Submit(JobSpec{Engine: "MC", Protocol: " S:0.3 ", Graph: "pair", Run: "GOOD", Trials: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second submission state %s cached=%v, want done from cache", second.State, second.Cached)
	}
	if !bytes.Equal(second.Result, fin.Result) {
		t.Errorf("cached result differs from computed result:\n%s\nvs\n%s", second.Result, fin.Result)
	}
	if hits, _ := s.CacheStats(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	var body struct {
		Result struct {
			Completed int `json:"completed"`
		} `json:"result"`
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(second.Result, &body); err != nil {
		t.Fatal(err)
	}
	if body.Result.Completed != 2000 || body.Partial {
		t.Errorf("cached body %+v", body)
	}
}

// TestCancelMidFlightReturnsPartial is the e2e acceptance check: a
// 1e5-trial job cancelled mid-flight settles as cancelled with a
// partial result, and no worker goroutines are left behind.
func TestCancelMidFlightReturnsPartial(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	base := runtime.NumGoroutine()

	st, err := s.Submit(JobSpec{Protocol: "s:0.05", Graph: "complete:8", Rounds: 40, Trials: 100_000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for real progress so the cancellation is genuinely mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := s.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Progress.Completed > 0 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished (%s) before it could be cancelled", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress observed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, st.ID, 10*time.Second)
	if fin.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", fin.State)
	}
	if fin.Result == nil {
		t.Fatal("cancelled job carried no partial result")
	}
	var body struct {
		Result struct {
			Completed int `json:"completed"`
			Trials    int `json:"trials"`
		} `json:"result"`
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(fin.Result, &body); err != nil {
		t.Fatal(err)
	}
	if !body.Partial || body.Result.Completed == 0 || body.Result.Completed >= body.Result.Trials {
		t.Errorf("partial body %+v, want 0 < completed < %d", body, body.Result.Trials)
	}
	// Partial results must not poison the cache.
	if _, ok := s.cache.Get(fin.Key); ok {
		t.Error("partial result entered the cache")
	}

	// Every mc worker goroutine must have exited.
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPrecisionJobStopsEarly is the adaptive-stopping acceptance check:
// a served job with a precision block halts once every Wilson 95%
// interval is at most the target width, reports the trials actually
// run, and still memoizes (the stopping rule is deterministic).
func TestPrecisionJobStopsEarly(t *testing.T) {
	s := New(Config{Workers: 2})
	defer drain(t, s)

	spec := JobSpec{
		Protocol: "s:0.3", Run: "cut:5", Trials: 100_000, Seed: 9,
		Precision: &PrecisionSpec{CIWidth: 0.02},
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, st.ID, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("precision job ended %s: %s", fin.State, fin.Error)
	}
	var body mcBody
	if err := json.Unmarshal(fin.Result, &body); err != nil {
		t.Fatal(err)
	}
	if !body.Result.Stopped {
		t.Error("job did not report an early stop")
	}
	if body.Result.Completed >= body.Result.Trials {
		t.Errorf("completed %d of %d trials: no budget saved", body.Result.Completed, body.Result.Trials)
	}
	for _, iv := range []struct {
		name string
		iv   stats.Interval
	}{{"ta", body.TAWilson95}, {"pa", body.PAWilson95}, {"na", body.NAWilson95}} {
		if w := iv.iv.Width(); w > 0.02 {
			t.Errorf("%s interval width %v over the 0.02 target", iv.name, w)
		}
	}
	if body.Partial {
		t.Error("early stop mislabeled as a partial result")
	}

	// Early-stopped bodies are as cacheable as fixed-count ones.
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !bytes.Equal(again.Result, fin.Result) {
		t.Error("early-stopped result not served bit-identically from cache")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer drain(t, s)
	slow := func(seed uint64) JobSpec {
		return JobSpec{Protocol: "s:0.05", Graph: "complete:8", Rounds: 40, Trials: 100_000, Seed: seed}
	}
	if _, err := s.Submit(slow(1)); err != nil {
		t.Fatal(err)
	}
	// The worker may or may not have dequeued job 1 yet; keep adding
	// until the queue rejects, which must happen by the third job.
	var sawFull bool
	for seed := uint64(2); seed <= 4; seed++ {
		if _, err := s.Submit(slow(seed)); err == ErrQueueFull {
			sawFull = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Error("queue never pushed back")
	}
	if s.Metrics().JobsRejected.Load() == 0 {
		t.Error("rejected jobs not counted")
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := New(Config{Workers: 1})
	st, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 4, Trials: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The queued job was allowed to finish.
	fin, err := s.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Errorf("queued job state after drain: %s, want done", fin.State)
	}
	if _, err := s.Submit(JobSpec{Protocol: "s:0.5", Trials: 100}); err != ErrDraining {
		t.Errorf("submit while draining: %v, want ErrDraining", err)
	}
}

func TestExperimentEngineJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	st, err := s.Submit(JobSpec{Engine: "experiment", Experiment: "t1", Quick: true, Trials: 500})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, st.ID, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("experiment job ended %s: %s", fin.State, fin.Error)
	}
	var body struct {
		ID string `json:"id"`
		OK bool   `json:"ok"`
	}
	if err := json.Unmarshal(fin.Result, &body); err != nil {
		t.Fatal(err)
	}
	if body.ID != "T1" || !body.OK {
		t.Errorf("experiment body %+v", body)
	}
	// Same experiment again: memoized.
	again, err := s.Submit(JobSpec{Engine: "EXPERIMENT", Experiment: "T1", Quick: true, Trials: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !bytes.Equal(again.Result, fin.Result) {
		t.Errorf("experiment result not served from cache")
	}
}

func TestDeadlineExpiryCancelsJob(t *testing.T) {
	s := New(Config{Workers: 1, JobTimeout: 50 * time.Millisecond})
	defer drain(t, s)
	st, err := s.Submit(JobSpec{Protocol: "s:0.05", Graph: "complete:8", Rounds: 40, Trials: 5_000_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, st.ID, 10*time.Second)
	if fin.State != StateCancelled {
		t.Errorf("deadline-expired job state %s, want cancelled", fin.State)
	}
}

// TestSubmissionCounters pins what the submission counters count.
// JobsSubmitted counts every valid submission — cache hits, and ones
// refused with 429 or 503 — plus every cell of an admitted sweep, but
// neither an invalid spec nor a replayed journal record, which counts in
// QueueReplayed alone. SweepsSubmitted counts every valid sweep, refused
// ones included; SweepsRejected the 429s among them.
func TestSubmissionCounters(t *testing.T) {
	type counts struct{ jobs, rejected, sweeps, sweepsRejected, replayed int64 }
	check := func(s *Server, what string, want counts) {
		t.Helper()
		m := s.Metrics()
		got := counts{m.JobsSubmitted.Load(), m.JobsRejected.Load(), m.SweepsSubmitted.Load(), m.SweepsRejected.Load(), m.QueueReplayed.Load()}
		if got != want {
			t.Fatalf("after %s: counters %+v, want %+v", what, got, want)
		}
	}
	spec := func(seed uint64) JobSpec { return JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200, Seed: seed} }
	sweep := func(seeds ...uint64) SweepSpec {
		return SweepSpec{Base: JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200}, Axes: SweepAxes{Seeds: seeds}}
	}

	block := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1, WatchdogInterval: -1, WrapEngine: stallWrapper(666, block)})
	if _, err := s.Submit(JobSpec{Protocol: "zzz"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	check(s, "an invalid spec", counts{})
	gate, err := s.Submit(spec(666))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the gate job to run", func() bool {
		st, err := s.Get(gate.ID)
		return err == nil && st.State == StateRunning
	})
	if _, err := s.SubmitSweep(sweep(10, 11, 12)); err != nil {
		t.Fatal(err)
	}
	check(s, "an admitted 3-cell sweep", counts{jobs: 4, sweeps: 1})
	if _, err := s.SubmitSweep(sweep(20, 21)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("sweep past QueueDepth: %v, want ErrQueueFull", err)
	}
	check(s, "a 429'd sweep", counts{jobs: 4, sweeps: 2, sweepsRejected: 1})
	if _, err := s.Submit(spec(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec(2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("job past QueueDepth: %v, want ErrQueueFull", err)
	}
	check(s, "a queued and a 429'd job", counts{jobs: 6, rejected: 1, sweeps: 2, sweepsRejected: 1})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitUntil(t, "the drain to begin", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})
	if _, err := s.Submit(spec(3)); !errors.Is(err, ErrDraining) {
		t.Fatalf("job while draining: %v, want ErrDraining", err)
	}
	if _, err := s.SubmitSweep(sweep(30)); !errors.Is(err, ErrDraining) {
		t.Fatalf("sweep while draining: %v, want ErrDraining", err)
	}
	check(s, "a job and a sweep refused while draining", counts{jobs: 7, rejected: 1, sweeps: 3, sweepsRejected: 1})
	close(block)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	// Replay counts in QueueReplayed alone; a later hit on the replayed
	// key is an ordinary submission.
	canon, err := spec(5).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{Workers: 1, Journal: reopenedJournal(t, canon, canon.Key())})
	defer drain(t, r)
	check(r, "a replay", counts{replayed: 1})
	waitUntil(t, "the replayed job to settle", func() bool {
		jobs := r.Jobs()
		return len(jobs) == 1 && jobs[0].State == StateDone
	})
	if st, err := r.Submit(spec(5)); err != nil || !st.Cached {
		t.Fatalf("resubmitting the replayed key: %+v, %v; want a cache hit", st, err)
	}
	check(r, "a cache hit", counts{jobs: 1, replayed: 1})
}
