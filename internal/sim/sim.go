// Package sim executes protocols over runs.
//
// It provides two executors with identical semantics: a sequential loop
// engine (the reference), and a concurrent engine with one goroutine per
// general exchanging messages over channels with a barrier per round —
// the natural Go rendering of the synchronous model. Property tests drive
// both with identical (run, α) and require identical executions. Engine
// is the zero-alloc trial engine for protocols with a FastState; the
// differential suites hold it to the loop engine bit for bit.
//
// Per §2 of the paper: in every round 1..N every process sends a message
// to every neighbor (σ_i), the run decides which are delivered, and every
// process then steps its state machine (δ_i) on the delivered set S_i^r.
package sim

import (
	"fmt"
	"sort"

	"coordattack/internal/graph"
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	"coordattack/internal/run"
)

// Tapes supplies the private random tape α_i for each process. Use
// StreamTapes for the common case.
type Tapes func(graph.ProcID) *rng.Tape

// StreamTapes adapts an rng.Stream trial to a Tapes function.
func StreamTapes(s rng.Stream, trial uint64) Tapes {
	return func(i graph.ProcID) *rng.Tape { return s.Tape(trial, uint64(i)) }
}

// SeedTapes derives per-process tapes from a single seed; convenient for
// one-off executions.
func SeedTapes(seed uint64) Tapes {
	s := rng.NewStream(seed)
	return StreamTapes(s, 0)
}

func newMachines(p protocol.Protocol, g *graph.G, r *run.Run, tapes Tapes) ([]protocol.Machine, error) {
	if err := r.Validate(g); err != nil {
		return nil, fmt.Errorf("sim: run does not fit graph: %w", err)
	}
	m := g.NumVertices()
	machines := make([]protocol.Machine, m+1)
	for i := 1; i <= m; i++ {
		id := graph.ProcID(i)
		cfg := protocol.Config{
			ID:    id,
			G:     g,
			N:     r.N(),
			Input: r.HasInput(id),
			Tape:  tapes(id),
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		mach, err := p.NewMachine(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: creating machine %d for %s: %w", i, p.Name(), err)
		}
		machines[i] = mach
	}
	return machines, nil
}

// Outputs runs the loop engine and returns only the decision vector
// (index 1..m; index 0 unused). It records no trace; it is the reference
// executor behind Monte-Carlo jobs without a zero-alloc engine.
func Outputs(p protocol.Protocol, g *graph.G, r *run.Run, tapes Tapes) ([]bool, error) {
	return loop(p, g, r, tapes, nil)
}

// Outcome runs the loop engine and classifies the result.
func Outcome(p protocol.Protocol, g *graph.G, r *run.Run, tapes Tapes) (protocol.Outcome, error) {
	outs, err := Outputs(p, g, r, tapes)
	if err != nil {
		return 0, err
	}
	return protocol.Classify(outs), nil
}

// Execute runs the loop engine recording a full execution trace: per
// process and round, every sent message with its delivery fate and every
// received message — the paper's (E_i) vector.
func Execute(p protocol.Protocol, g *graph.G, r *run.Run, tapes Tapes) (*protocol.Execution, error) {
	m := g.NumVertices()
	exec := &protocol.Execution{N: r.N(), Locals: make([]protocol.LocalExecution, m+1)}
	for i := 1; i <= m; i++ {
		exec.Locals[i] = protocol.LocalExecution{
			ID:     graph.ProcID(i),
			Input:  r.HasInput(graph.ProcID(i)),
			Rounds: make([]protocol.RoundRecord, r.N()),
		}
	}
	outs, err := loop(p, g, r, tapes, exec)
	if err != nil {
		return nil, err
	}
	for i := 1; i <= m; i++ {
		exec.Locals[i].Output = outs[i]
	}
	return exec, nil
}

// loop is the loop engine: in every round each process sends to each
// neighbor, the run decides which messages are delivered, and each
// process steps on its delivered set sorted by sender. When exec is
// non-nil the rounds are also recorded into it.
func loop(p protocol.Protocol, g *graph.G, r *run.Run, tapes Tapes, exec *protocol.Execution) ([]bool, error) {
	machines, err := newMachines(p, g, r, tapes)
	if err != nil {
		return nil, err
	}
	m := g.NumVertices()
	inboxes := make([][]protocol.Received, m+1)
	for round := 1; round <= r.N(); round++ {
		for i := 1; i <= m; i++ {
			if exec != nil {
				inboxes[i] = nil // fresh slices: the trace retains them
			} else {
				inboxes[i] = inboxes[i][:0]
			}
		}
		for i := 1; i <= m; i++ {
			from := graph.ProcID(i)
			for _, to := range g.Neighbors(from) {
				msg, err := safeSend(p, machines[i], from, round, to)
				if err != nil {
					return nil, err
				}
				delivered := r.Delivered(from, to, round)
				if exec != nil {
					rec := &exec.Locals[i].Rounds[round-1]
					rec.Sent = append(rec.Sent, protocol.SentRecord{To: to, Msg: msg, Delivered: delivered})
				}
				if delivered {
					inboxes[to] = append(inboxes[to], protocol.Received{From: from, Msg: msg})
				}
			}
		}
		for i := 1; i <= m; i++ {
			sortReceived(inboxes[i])
			if exec != nil {
				exec.Locals[i].Rounds[round-1].Received = inboxes[i]
			}
			if err := safeStep(p, machines[i], graph.ProcID(i), round, inboxes[i]); err != nil {
				return nil, err
			}
		}
	}
	outs := make([]bool, m+1)
	for i := 1; i <= m; i++ {
		out, err := safeOutput(p, machines[i], graph.ProcID(i))
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}

func sortReceived(rs []protocol.Received) {
	sort.Slice(rs, func(a, b int) bool { return rs[a].From < rs[b].From })
}
