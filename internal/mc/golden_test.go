package mc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"coordattack/internal/core"
	"coordattack/internal/fault"
	"coordattack/internal/graph"
	"coordattack/internal/rng"
	"coordattack/internal/run"
)

// goldenJobs are the jobs whose marshalled Result is pinned byte for
// byte in testdata/golden/<name>.json. The differential suite compares
// two execution paths of the same build, so it cannot see a change that
// shifts both at once (a new tape derivation, a reordered tally); these
// fixtures can. Served results are keyed by spec alone, so a shifted
// number would sit on disk beside a recomputed, different one.
func goldenJobs(t *testing.T) map[string]Config {
	t.Helper()
	complete4, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	pair := graph.Pair()
	// Random fixed runs, not good runs: on a good run Protocol S always
	// attacks, whatever its tapes, and a fixture would pin nothing.
	subset10, err := run.RandomSubset(complete4, 10, rng.NewTape(1))
	if err != nil {
		t.Fatal(err)
	}
	subset6, err := run.RandomSubset(complete4, 6, rng.NewTape(2))
	if err != nil {
		t.Fatal(err)
	}
	goodPair, err := run.Good(pair, 8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	failEvery7 := func(trial uint64, tape *rng.Tape) (*run.Run, error) {
		if trial%7 == 3 {
			return nil, fmt.Errorf("injected sampler failure on trial %d", trial)
		}
		return run.RandomSubset(pair, 5, tape)
	}
	faults := fault.SampleConfig{
		PFault: 0.4,
		Kinds:  []fault.Kind{fault.CrashStop, fault.OmitRound, fault.Stutter, fault.PanicStep, fault.NilSend},
	}
	return map[string]Config{
		"fixed-s-complete4": {
			Protocol: core.MustS(0.1), Graph: complete4, Run: subset10,
			Trials: 3000, Seed: 1992,
		},
		"sampler-subset": {
			Protocol: core.MustS(0.1), Graph: complete4, Sampler: subsetSampler(complete4, 6),
			Trials: 2000, Seed: 77,
		},
		"fault-mutator": {
			Protocol: core.MustS(0.3), Graph: pair, Run: goodPair,
			Mutator: fault.Mutator(5, pair, 8, faults),
			Trials:  1500, Seed: 11, MaxFailures: 1500,
		},
		"adaptive-stop": {
			Protocol: core.MustS(0.2), Graph: complete4, Run: subset6,
			Trials: 20000, Seed: 9, TargetCIWidth: 0.1, CheckEvery: 64,
		},
		"failing-sampler": {
			Protocol: core.MustS(0.3), Graph: pair,
			Sampler: failEvery7, Trials: 700, Seed: 41, MaxFailures: 700,
		},
		// The budget-blown jobs pin the joined error text too. They run
		// at one worker only: above one, which trials finish before the
		// breaker trips depends on scheduling.
		"failing-sampler-blown": {
			Protocol: core.MustS(0.3), Graph: pair,
			Sampler: failEvery7, Trials: 700, Seed: 41, MaxFailures: 3, Workers: 1,
		},
		"fault-mutator-blown": {
			Protocol: core.MustS(0.3), Graph: pair, Run: goodPair,
			Mutator: fault.Mutator(5, pair, 8, faults),
			Trials:  1500, Seed: 11, MaxFailures: 4, Workers: 1,
		},
		"invalid-run-blown": {
			Protocol: core.MustS(0.3), Graph: pair,
			Run:    run.MustNew(4).MustDeliver(1, 3, 1), // process 3 is off the pair graph
			Trials: 50, Seed: 3, MaxFailures: 2, Workers: 1,
		},
	}
}

// TestGoldenResults runs every golden job at 1 and 3 workers (or at its
// own fixed count) and requires the Result JSON, with any error text,
// to equal the checked-in fixture exactly.
func TestGoldenResults(t *testing.T) {
	for name, cfg := range goldenJobs(t) {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		counts := []int{1, 3}
		if cfg.Workers != 0 {
			counts = []int{cfg.Workers}
		}
		for _, workers := range counts {
			cfg.Workers = workers
			got := append(estimateJSON(t, cfg), '\n')
			if !bytes.Equal(got, want) {
				t.Errorf("%s at %d workers drifted from its fixture\ngot:  %s\nwant: %s", name, workers, got, want)
			}
		}
	}
}
