package service

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"coordattack/internal/mc"
	"coordattack/internal/queue"
)

// stallWrapper wedges the engine for jobs carrying the marked seed: the
// run blocks on the channel, ignoring ctx entirely — the failure mode
// the watchdog exists for. Other jobs pass through untouched.
func stallWrapper(markSeed uint64, block chan struct{}) func(string, RunFunc) RunFunc {
	return func(name string, next RunFunc) RunFunc {
		return func(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
			if spec.Seed == markSeed {
				<-block
			}
			return next(ctx, spec, workers, progress)
		}
	}
}

func TestWatchdogKillsStuckJobAndFreesSlot(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{
		Workers:          1,
		JobTimeout:       50 * time.Millisecond,
		WatchdogInterval: 20 * time.Millisecond,
		WatchdogGrace:    50 * time.Millisecond,
		WrapEngine:       stallWrapper(666, block),
	})
	defer drain(t, s)
	defer close(block)

	st, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 300, Seed: 666})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, st.ID, 10*time.Second)
	if fin.State != StateFailed {
		t.Fatalf("stuck job settled %s, want failed", fin.State)
	}
	if !strings.Contains(fin.Error, "watchdog killed stuck job") {
		t.Errorf("stuck job error %q does not name the watchdog", fin.Error)
	}
	if got := s.Metrics().WatchdogKills.Load(); got != 1 {
		t.Errorf("watchdog kills = %d, want 1", got)
	}
	if got := s.pool(queue.ClassInteractive).running.Load(); got != 0 {
		t.Errorf("running gauge = %d after kill, want 0", got)
	}

	// The single worker slot was freed: a subsequent job runs to
	// completion even though the wedged goroutine is still blocked.
	st2, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fin2 := waitState(t, s, st2.ID, 10*time.Second)
	if fin2.State != StateDone {
		t.Fatalf("follow-up job settled %s, want done (worker slot not reclaimed?)", fin2.State)
	}
}

func TestWatchdogSparesSlowButAliveJobs(t *testing.T) {
	// Deadline shorter than the run, but the engine honors ctx: the job
	// settles as an ordinary deadline cancellation with a partial body,
	// and the watchdog — scanning far faster than the grace period —
	// must never claim it.
	s := New(Config{
		Workers:          1,
		JobTimeout:       100 * time.Millisecond,
		WatchdogInterval: 10 * time.Millisecond,
		WatchdogGrace:    10 * time.Second,
	})
	defer drain(t, s)

	st, err := s.Submit(JobSpec{Protocol: "s:0.05", Graph: "complete:8", Rounds: 40, Trials: 2_000_000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, st.ID, 10*time.Second)
	if fin.State != StateCancelled {
		t.Fatalf("deadline job settled %s, want cancelled", fin.State)
	}
	if got := s.Metrics().WatchdogKills.Load(); got != 0 {
		t.Errorf("watchdog kills = %d for a ctx-honoring job, want 0", got)
	}
}

func TestJobsGCEvictsOldestSettledOnly(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{
		Workers:      2,
		JobRetention: 2,
		// The stalled job must survive the whole test; keep the watchdog
		// and deadline far away.
		JobTimeout: time.Minute,
		WrapEngine: stallWrapper(666, block),
	})
	defer drain(t, s)
	defer close(block)

	// One unsettled job occupies a worker for the duration.
	stuck, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 300, Seed: 666})
	if err != nil {
		t.Fatal(err)
	}

	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		st, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, st.ID, 10*time.Second)
		ids = append(ids, st.ID)
	}

	// Four settled jobs against a retention of 2: the two oldest are
	// evicted. The second eviction runs in the fourth job's settle, after
	// its state already reads done, so wait for the eviction itself.
	waitUntil(t, "two jobs evicted", func() bool { return s.Metrics().JobsEvicted.Load() >= 2 })
	if _, err := s.Get(ids[0]); err != ErrNotFound {
		t.Errorf("oldest settled job still queryable, want evicted")
	}
	if _, err := s.Get(ids[1]); err != ErrNotFound {
		t.Errorf("second-oldest settled job still queryable, want evicted")
	}
	if _, err := s.Get(ids[3]); err != nil {
		t.Errorf("newest settled job evicted: %v", err)
	}
	if _, err := s.Get(stuck.ID); err != nil {
		t.Errorf("unsettled job evicted: %v", err)
	}
	if got := s.Metrics().JobsEvicted.Load(); got < 2 {
		t.Errorf("jobs evicted metric = %d, want >= 2", got)
	}
}

// TestDrainDeadlineBoundsWedgedEngine: a forced drain returns once
// WatchdogGrace past its deadline even when engines ignore
// cancellation, and every wedged job settles cancelled with an error
// naming the drain — an interactive job alone, or an interactive job
// and a sweep cell each wedged in their own pool.
func TestDrainDeadlineBoundsWedgedEngine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sweep bool
	}{{"interactive", false}, {"both pools", true}} {
		t.Run(tc.name, func(t *testing.T) {
			block := make(chan struct{})
			defer close(block)
			s := New(Config{Workers: 1, WatchdogGrace: 100 * time.Millisecond, WrapEngine: stallWrapper(666, block)})
			st, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 300, Seed: 666})
			if err != nil {
				t.Fatal(err)
			}
			ids := []string{st.ID}
			if tc.sweep {
				sw, err := s.SubmitSweep(SweepSpec{
					Base: JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 200},
					Axes: SweepAxes{Seeds: []uint64{666}},
				})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, sw.Table[0].JobID)
			}
			waitUntil(t, "the wedged jobs to run", func() bool {
				for _, id := range ids {
					if g, err := s.Get(id); err != nil || g.State != StateRunning {
						return false
					}
				}
				return true
			})
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			drained := make(chan error, 1)
			go func() { drained <- s.Drain(ctx) }()
			select {
			case err := <-drained:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("drain: %v, want %v", err, context.DeadlineExceeded)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Drain still blocked 2 s after its 200 ms deadline")
			}
			for _, id := range ids {
				fin, err := s.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if fin.State != StateCancelled || !strings.Contains(fin.Error, "drain") {
					t.Errorf("wedged job %s settled %s (%q), want cancelled naming the drain", id, fin.State, fin.Error)
				}
			}
		})
	}
}
