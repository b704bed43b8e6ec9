package mc

import (
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	"coordattack/internal/run"
	"coordattack/internal/sim"
)

// Fast execution path: when the protocol exposes a zero-alloc engine
// (protocol.FastProtocol → sim.Engine), each Monte-Carlo worker runs its
// trials on its own engine instead of building machines, inboxes, and
// tapes per trial. The path is gated conservatively — any doubt falls
// back to the reference executor — and is bit-identical to it: same tape
// seeds per (Seed, trial, proc), same transition order, same failure
// accounting. The differential suite runs every job both ways and
// compares Result JSON byte for byte.

// fastPath reports whether cfg runs on zero-alloc engines. Jobs with a
// Mutator never do: the mutated protocol varies per trial, so a prebuilt
// engine would execute the wrong protocol.
func fastPath(cfg Config) bool {
	if cfg.reference || cfg.Mutator != nil {
		return false
	}
	if cfg.Sampler != nil {
		// Probe the shape with a throwaway horizon; the per-trial horizon
		// is only known once each run is sampled.
		_, err := sim.NewEngine(cfg.Protocol, cfg.Graph, 1)
		return err == nil
	}
	probe, err := sim.NewEngine(cfg.Protocol, cfg.Graph, cfg.Run.N())
	// An invalid fixed run fails every trial on the reference path; keep
	// that accounting (and its error text) by falling back.
	return err == nil && probe.LoadRun(cfg.Run) == nil
}

// worker is one trial goroutine's state: its tally, the tape its sampled
// runs are drawn from, and on the fast path its engine.
type worker struct {
	local tally
	tape  *rng.Tape
	eng   *sim.Engine
	// loaded marks eng as holding the fixed run, which loads once;
	// sampled runs load every trial.
	loaded bool
}

// execute runs one trial of p on r: on the worker's engine, rebuilt only
// when a sampled horizon changes, or through the reference executor.
// Both use the tapes of protoStream.Tape(trial, ·). The engine's steady
// state allocates nothing (the alloc-regression tests pin it).
func (e *estimator) execute(wk *worker, p protocol.Protocol, r *run.Run, trial uint64) ([]bool, error) {
	if !e.fast {
		return sim.Outputs(p, e.cfg.Graph, r, sim.StreamTapes(e.protoStream, trial))
	}
	if wk.eng == nil || wk.eng.N() != r.N() {
		eng, err := sim.NewEngine(p, e.cfg.Graph, r.N())
		if err != nil {
			return nil, err
		}
		wk.eng, wk.loaded = eng, false
	}
	if !wk.loaded {
		if err := wk.eng.LoadRun(r); err != nil {
			return nil, err
		}
		wk.loaded = e.cfg.Sampler == nil
	}
	return wk.eng.Trial(e.protoStream, trial)
}
