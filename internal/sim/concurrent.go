package sim

import (
	"sync"

	"coordattack/internal/graph"
	"coordattack/internal/protocol"
	"coordattack/internal/run"
)

// ConcurrentOutputs executes the protocol with one goroutine per general.
//
// Each ordered adjacent pair (i, j) gets a channel of capacity one. A
// round proceeds in three phases, separated by a cyclic barrier shared by
// all m goroutines:
//
//  1. send:    every process puts σ_i(q^{r-1}, j) on its outgoing channels;
//  2. deliver: every process drains its incoming channels, keeping the
//     messages the run delivers and discarding the rest (the adversary);
//  3. step:    every process applies δ_i to the delivered set.
//
// The drain phase must complete everywhere before the next send phase
// reuses the channels, hence the second barrier. Semantics are identical
// to Outputs; TestEnginesAgree drives both on random (run, α).
//
// Failure isolation: a machine that panics, errors in Step, or sends nil
// is marked failed but its goroutine keeps running the full round
// schedule — sending placeholders, draining its inbox, and pacing the
// barrier — so its peers never deadlock. The first failure (by process
// id) is returned as a MachineError and the outputs are discarded.
func ConcurrentOutputs(p protocol.Protocol, g *graph.G, r *run.Run, tapes Tapes) ([]bool, error) {
	machines, err := newMachines(p, g, r, tapes)
	if err != nil {
		return nil, err
	}
	m := g.NumVertices()

	chans := make(map[[2]graph.ProcID]chan protocol.Message, 2*g.NumEdges())
	for _, e := range g.Edges() {
		chans[[2]graph.ProcID{e.A, e.B}] = make(chan protocol.Message, 1)
		chans[[2]graph.ProcID{e.B, e.A}] = make(chan protocol.Message, 1)
	}

	bar := newBarrier(m)
	outs := make([]bool, m+1)
	errs := make([]error, m+1)
	var wg sync.WaitGroup

	for i := 1; i <= m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := graph.ProcID(i)
			mach := machines[i]
			neighbors := g.Neighbors(id)
			inbox := make([]protocol.Received, 0, len(neighbors))
			failed := false
			for round := 1; round <= r.N(); round++ {
				// Phase 1: send. A failed machine is silent in the model
				// sense but must still fill its channels so receivers'
				// drains don't block; it sends placeholders, which
				// receivers discard.
				for _, to := range neighbors {
					var msg protocol.Message
					if !failed {
						var err error
						msg, err = safeSend(p, mach, id, round, to)
						if err != nil {
							errs[i] = err
							failed = true
						}
					}
					if failed {
						msg = nilPlaceholder{}
					}
					chans[[2]graph.ProcID{id, to}] <- msg
				}
				bar.Await()
				// Phase 2: drain and filter (adversary applied here). Even
				// a failed machine drains, to keep the channels empty for
				// the next cycle.
				inbox = inbox[:0]
				for _, from := range neighbors {
					msg := <-chans[[2]graph.ProcID{from, id}]
					if r.Delivered(from, id, round) {
						if _, bad := msg.(nilPlaceholder); !bad {
							inbox = append(inbox, protocol.Received{From: from, Msg: msg})
						}
					}
				}
				bar.Await()
				// Phase 3: step. Neighbor lists are sorted, so the inbox
				// already is.
				if !failed {
					if err := safeStep(p, mach, id, round, inbox); err != nil {
						errs[i] = err
						failed = true
					}
				}
			}
			if !failed {
				out, err := safeOutput(p, mach, id)
				if err != nil {
					errs[i] = err
					return
				}
				outs[i] = out
			}
		}(i)
	}
	wg.Wait()

	for i := 1; i <= m; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return outs, nil
}

// nilPlaceholder stands in for the message of a failed machine so the
// channel plumbing stays balanced while the error propagates.
type nilPlaceholder struct{}

func (nilPlaceholder) CAMessage() {}
