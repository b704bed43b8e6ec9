package mc

import (
	"testing"

	"coordattack/internal/core"
	"coordattack/internal/graph"
	"coordattack/internal/run"
)

// TestFixedRunAllocRegression pins the fast path's allocation behavior
// at the estimator level: growing the trial count must not grow the
// allocation count beyond a sliver of per-block page refills, because
// the steady-state trial loop itself allocates nothing. The reference
// loop allocates machines, inboxes, and tapes every trial (tens of
// allocations), so any silent fallback or per-trial garbage fails this
// immediately.
func TestFixedRunAllocRegression(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	r, err := run.Good(g, n, g.Vertices()...)
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(trials int) func() {
		return func() {
			if _, err := Estimate(Config{
				Protocol: core.MustS(0.1),
				Graph:    g,
				Run:      r,
				Trials:   trials,
				Seed:     1992,
				Workers:  1,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const base, extra = 512, 8192
	baseAllocs := testing.AllocsPerRun(1, estimate(base))
	moreAllocs := testing.AllocsPerRun(1, estimate(base+extra))
	perTrial := (moreAllocs - baseAllocs) / extra
	if perTrial > 0.5 {
		t.Errorf("fast fixed-run estimator allocates %.3f/trial (base %v, grown %v), want ~0",
			perTrial, baseAllocs, moreAllocs)
	}
}

// TestAdaptiveAllocRegression extends the fixed-run pin to adaptive
// jobs, which run one batch of CheckEvery trials at a time. A batch may
// allocate its goroutines and a cumulative Result, but each worker must
// keep its engine across batches: rebuilding one costs more allocations
// than the whole per-batch budget.
func TestAdaptiveAllocRegression(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	const n, check = 10, 64
	r, err := run.Good(g, n, g.Vertices()...)
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(trials int) func() {
		return func() {
			if _, err := Estimate(Config{
				Protocol:   core.MustS(0.1),
				Graph:      g,
				Run:        r,
				Trials:     trials,
				Seed:       1992,
				Workers:    2,
				StopWhen:   func(*Result) bool { return false },
				CheckEvery: check,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const base, extra = 512, 8192
	baseAllocs := testing.AllocsPerRun(1, estimate(base))
	moreAllocs := testing.AllocsPerRun(1, estimate(base+extra))
	perBatch := (moreAllocs - baseAllocs) / (extra / check)
	if perBatch > 12 {
		t.Errorf("adaptive estimator allocates %.2f/batch (base %v, grown %v), want at most 12",
			perBatch, baseAllocs, moreAllocs)
	}
}
