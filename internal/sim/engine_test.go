package sim

import (
	"errors"
	"testing"

	"coordattack/internal/baseline"
	"coordattack/internal/core"
	"coordattack/internal/graph"
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	"coordattack/internal/run"
)

func fastTestGraphs(t *testing.T) map[string]*graph.G {
	t.Helper()
	complete4, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	ring6, err := graph.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.G{"pair": graph.Pair(), "complete4": complete4, "ring6": ring6}
}

func fastTestProtocols(t *testing.T) map[string]protocol.Protocol {
	t.Helper()
	slack, err := core.NewSWithSlack(0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := core.NewSAltValidity(0.2)
	if err != nil {
		t.Fatal(err)
	}
	thresh, err := baseline.NewDetThreshold(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]protocol.Protocol{
		"s":            core.MustS(0.1),
		"s-slack":      slack,
		"s-alt":        alt,
		"detfullinfo":  baseline.NewDetFullInfo(),
		"detthreshold": thresh,
	}
}

// TestFastEnginesMatchReference is the sim-level differential suite: on
// random runs, the zero-alloc engine must reproduce the reference
// engine's outputs bit for bit, for every fast protocol on every test
// graph, with the identical (stream, trial) tape labels.
func TestFastEnginesMatchReference(t *testing.T) {
	const n = 6
	stream := rng.NewStream(2024)
	runStream := rng.NewStream(5150)
	for gname, g := range fastTestGraphs(t) {
		for pname, p := range fastTestProtocols(t) {
			eng, err := NewEngine(p, g, n)
			if err != nil {
				t.Fatalf("%s/%s: NewEngine: %v", gname, pname, err)
			}
			for trial := uint64(0); trial < 30; trial++ {
				r, err := run.RandomSubset(g, n, runStream.Tape(trial, 0))
				if err != nil {
					t.Fatal(err)
				}
				want, err := Outputs(p, g, r, StreamTapes(stream, trial))
				if err != nil {
					t.Fatalf("%s/%s trial %d: reference: %v", gname, pname, trial, err)
				}
				if err := eng.LoadRun(r); err != nil {
					t.Fatal(err)
				}
				got, err := eng.Trial(stream, trial)
				if err != nil {
					t.Fatalf("%s/%s trial %d: fast: %v", gname, pname, trial, err)
				}
				for i := 1; i <= g.NumVertices(); i++ {
					if got[i] != want[i] {
						t.Fatalf("%s/%s trial %d: fast output[%d] = %v, reference %v\nrun %v",
							gname, pname, trial, i, got[i], want[i], r)
					}
				}
			}
		}
	}
}

// TestFastEngineMatchesConcurrentReference closes the square: the
// channel-based concurrent reference agrees with the fast path too.
func TestFastEngineMatchesConcurrentReference(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	p := core.MustS(0.25)
	const n = 5
	stream := rng.NewStream(9)
	runStream := rng.NewStream(10)
	eng, err := NewEngine(p, g, n)
	if err != nil {
		t.Fatal(err)
	}
	for trial := uint64(0); trial < 20; trial++ {
		r, err := run.RandomSubset(g, n, runStream.Tape(trial, 0))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ConcurrentOutputs(p, g, r, StreamTapes(stream, trial))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadRun(r); err != nil {
			t.Fatal(err)
		}
		got, err := eng.Trial(stream, trial)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 4; i++ {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fast output[%d] = %v, concurrent reference %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestNewEngineFallbackClassification(t *testing.T) {
	g := graph.Pair()
	// Protocol A has no fast state: the error must classify as no-fast-path.
	a := baseline.NewA()
	if _, err := NewEngine(a, g, 10); !errors.Is(err, ErrNoFastPath) {
		t.Fatalf("NewEngine(A) = %v, want ErrNoFastPath", err)
	}
	// Shapes Protocol S rejects surface the same way.
	big, err := graph.Complete(65)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(core.MustS(0.5), big, 3); !errors.Is(err, ErrNoFastPath) {
		t.Fatalf("NewEngine(S, m=65) = %v, want ErrNoFastPath", err)
	}
}

func TestEngineRejectsMismatchedRuns(t *testing.T) {
	g := graph.Pair()
	eng, err := NewEngine(core.MustS(0.5), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadRun(run.MustNew(3)); err == nil {
		t.Fatal("LoadRun accepted a run with the wrong N")
	}
	bad := run.MustNew(4).MustDeliver(1, 3, 1) // process 3 not in Pair
	if err := eng.LoadRun(bad); err == nil {
		t.Fatal("LoadRun accepted a run off the graph")
	}
}
