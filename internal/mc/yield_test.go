package mc

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"coordattack/internal/core"
	"coordattack/internal/graph"
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	"coordattack/internal/run"
)

// TestTrialLoopYields pins the trial loop's yield. With one processor
// and one trial worker, a goroutine sleeping 1 ms at a time must wake
// close to on time while the job runs, on the fast fixed-run path, the
// sampled path and the reference (Mutator) path. A worker that never
// yields holds the processor until the runtime preempts it, about 10 ms
// later, and the sleeper wakes that late.
func TestTrialLoopYields(t *testing.T) {
	complete4, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := run.RandomSubset(complete4, 10, rng.NewTape(1))
	if err != nil {
		t.Fatal(err)
	}
	identity := func(_ uint64, p protocol.Protocol) (protocol.Protocol, error) { return p, nil }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"fixed-fast", Config{Run: fixed}},
		{"sampled", Config{Sampler: subsetSampler(complete4, 6)}},
		{"mutator", Config{Run: fixed, Mutator: identity}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The job runs until the sleeper has woken 30 times, or for
			// 0.5 s: it would take far longer to finish on its own.
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			lateness := make(chan []time.Duration, 1)
			go func() {
				var late []time.Duration
				for len(late) < 30 && ctx.Err() == nil {
					start := time.Now()
					time.Sleep(time.Millisecond)
					late = append(late, time.Since(start)-time.Millisecond)
				}
				cancel()
				lateness <- late
			}()
			cfg := tc.cfg
			cfg.Protocol, cfg.Graph = core.MustS(0.1), complete4
			cfg.Trials, cfg.Seed, cfg.Workers, cfg.Ctx = math.MaxInt32, 5, 1, ctx
			if _, err := Estimate(cfg); !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Estimate ended with %v, want the job cancelled", err)
			}
			late := <-lateness
			if len(late) < 5 {
				t.Fatalf("the sleeper woke only %d times in 0.5 s", len(late))
			}
			slices.Sort(late)
			if median := late[len(late)/2]; median >= 2*time.Millisecond {
				t.Errorf("a 1 ms sleeper woke %v late (median of %d) beside a one-worker job, want under 2 ms",
					median, len(late))
			}
		})
	}
}
