package mc

import (
	"bytes"
	"encoding/json"
	"testing"

	"coordattack/internal/baseline"
	"coordattack/internal/core"
	"coordattack/internal/graph"
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	"coordattack/internal/run"
)

// The mc differential suite: every job is run twice — fast path and
// reference path — and the marshalled Results must be byte-identical.
// This is the estimator-level guarantee on top of the sim-level suite:
// not just per-trial outputs but failure accounting, attack counts,
// proportions, and adaptive stopping points survive the engine swap.

func diffGraphs(t *testing.T) map[string]*graph.G {
	t.Helper()
	complete4, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	ring6, err := graph.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.G{"pair": graph.Pair(), "complete:4": complete4, "ring:6": ring6}
}

func diffProtocols(t *testing.T) map[string]protocol.Protocol {
	t.Helper()
	return map[string]protocol.Protocol{
		"s:0.1":       core.MustS(0.1),
		"detfullinfo": baseline.NewDetFullInfo(),
	}
}

// estimateJSON runs cfg and marshals the Result; estimation errors are
// returned as text so failure-path configs can diff error presence too.
func estimateJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Estimate(cfg)
	if res == nil {
		t.Fatalf("Estimate returned nil result (err %v)", err)
	}
	buf, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	if err != nil {
		buf = append(buf, []byte("\nerror: "+err.Error())...)
	}
	return buf
}

func assertPathsAgree(t *testing.T, name string, cfg Config) {
	t.Helper()
	fast := cfg
	ref := withReference(cfg)
	got := estimateJSON(t, fast)
	want := estimateJSON(t, ref)
	if !bytes.Equal(got, want) {
		t.Errorf("%s: fast and reference results differ\nfast:      %s\nreference: %s", name, got, want)
	}
}

func subsetSampler(g *graph.G, n int) RunSampler {
	return func(trial uint64, tape *rng.Tape) (*run.Run, error) {
		return run.RandomSubset(g, n, tape)
	}
}

// TestFastPathMatchesReferenceJSON sweeps ≥50 randomized seeds per
// protocol × graph cell, half the seeds on a fixed random run and half
// through the random-subset sampler, at varying worker counts.
func TestFastPathMatchesReferenceJSON(t *testing.T) {
	const (
		nSeeds = 50
		n      = 6
		trials = 24
	)
	for gname, g := range diffGraphs(t) {
		for pname, p := range diffProtocols(t) {
			for i := 0; i < nSeeds; i++ {
				seed := rng.Mix64(uint64(i)*0x9e3779b97f4a7c15 + 0x5EED)
				cfg := Config{
					Protocol: p,
					Graph:    g,
					Trials:   trials,
					Seed:     seed,
					Workers:  1 + i%3,
				}
				name := gname + "/" + pname
				if i%2 == 0 {
					r, err := run.RandomSubset(g, n, rng.NewTape(rng.Mix64(seed^1)))
					if err != nil {
						t.Fatal(err)
					}
					cfg.Run = r
					assertPathsAgree(t, name+"/fixed", cfg)
				} else {
					cfg.Sampler = subsetSampler(g, n)
					assertPathsAgree(t, name+"/sampler", cfg)
				}
			}
		}
	}
}

// TestFastPathFailureAccountingMatches pins the failure bookkeeping: a
// sampler that errors on a deterministic subset of trials must yield
// identical Completed/Failed splits (and identical error reports) on
// both paths, within budget and when the budget blows.
func TestFastPathFailureAccountingMatches(t *testing.T) {
	g := graph.Pair()
	base := Config{
		Protocol: core.MustS(0.3),
		Graph:    g,
		Sampler:  failingSampler(g, 5, func(trial uint64) bool { return trial%7 == 3 }),
		Trials:   200,
		Seed:     41,
	}
	within := base
	within.MaxFailures = 200
	assertPathsAgree(t, "within-budget", within)

	blown := base
	blown.MaxFailures = 3
	blown.Workers = 1 // deterministic attempted-set when the breaker trips
	assertPathsAgree(t, "budget-blown", blown)
}

// TestFastPathAdaptiveStoppingMatches: the CheckEvery batch boundaries
// and the stop decision are tally-driven, so the early-stopping point
// must be bit-identical across paths.
func TestFastPathAdaptiveStoppingMatches(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := run.Good(g, 6, g.Vertices()...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Protocol:      core.MustS(0.2),
		Graph:         g,
		Run:           r,
		Trials:        4000,
		Seed:          9,
		TargetCIWidth: 0.25,
		CheckEvery:    64,
	}
	assertPathsAgree(t, "adaptive", cfg)
}

// TestFastPathGating pins which configurations take the fast path.
func TestFastPathGating(t *testing.T) {
	g := graph.Pair()
	r, err := run.Good(g, 4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := core.MustS(0.1)
	fixed := Config{Protocol: s, Graph: g, Run: r, Trials: 1, Seed: 1}
	if !FastPathAvailable(fixed) {
		t.Error("fixed-run S job should take the fast path")
	}
	sampled := fixed
	sampled.Run = nil
	sampled.Sampler = subsetSampler(g, 4)
	if !FastPathAvailable(sampled) {
		t.Error("sampler S job should take the fast path")
	}
	forced := withReference(fixed)
	if FastPathAvailable(forced) {
		t.Error("Reference must force the reference path")
	}
	mutated := fixed
	mutated.Mutator = func(trial uint64, p protocol.Protocol) (protocol.Protocol, error) { return p, nil }
	if FastPathAvailable(mutated) {
		t.Error("mutator jobs must take the reference path")
	}
	slow := fixed
	slow.Protocol = baseline.NewA()
	if FastPathAvailable(slow) {
		t.Error("protocol A has no fast state; gate must refuse")
	}
	badRun := fixed
	badRun.Run = run.MustNew(4).MustDeliver(1, 3, 1) // process 3 off the Pair graph
	if FastPathAvailable(badRun) {
		t.Error("an invalid fixed run must fall back so per-trial failures match")
	}
	// And the invalid-run fallback must still produce identical results.
	badRun.Trials = 20
	badRun.MaxFailures = 20
	assertPathsAgree(t, "invalid-fixed-run", badRun)
}
