package protocol

import (
	"coordattack/internal/graph"
	"coordattack/internal/rng"
	"coordattack/internal/run"
)

// FastState is the struct-of-arrays execution surface behind the
// zero-alloc trial engine. Where Machine models one process holding its
// own boxed messages, a FastState holds the state of all m processes at
// once in flat arrays and advances them against a run.Set bitset —
// no message values, no per-round slices, no allocation after
// construction.
//
// The state is double-buffered by round parity. Engines rely on this
// contract, which also makes same-round steps of distinct processes
// independent of each other:
//
//   - Init writes every process's round-0 state into the parity-0 buffer.
//   - Step(rs, round, i) reads only round-1 parity state (any process)
//     and writes only process i's slot of the round parity buffer. It must
//     fold i's delivered in-neighbors in ascending sender order, matching
//     the sorted Received slices the reference engine feeds Machine.Step.
//   - Output(i) reads process i's slot of the parity-N buffer and must be
//     stable once every process has stepped round N.
//
// A FastState is reusable: Init fully resets it for the next trial. It is
// not safe for concurrent use across trials; within one trial, concurrent
// Step calls for distinct processes in the same round are safe by the
// buffer contract above.
type FastState interface {
	// Init resets the state for a new trial of the run rs, drawing any
	// start-state randomness from bank (bank.Tape(i) is α_i, bit-identical
	// to the tape the reference engine would hand process i).
	Init(rs *run.Set, bank *rng.Bank) error

	// Step computes process i's state after the given round (1-based).
	Step(rs *run.Set, round int, i graph.ProcID) error

	// Output returns O_i(q_i^N) after the final round has stepped.
	Output(i graph.ProcID) bool
}

// FastProtocol is implemented by protocols that provide a FastState in
// addition to the reference Machine implementation. The two must be
// observationally identical — same outputs, same random-tape consumption
// — on every run; the differential suite in internal/sim and internal/mc
// enforces that bit for bit. Engines treat the Machine path as the
// specification and use the fast path only when the protocol offers it.
type FastProtocol interface {
	Protocol

	// NewFastState builds a reusable whole-system state for runs over g
	// with horizon n. Returning an error means the fast path cannot serve
	// this shape (e.g. too many processes) and engines must fall back to
	// the reference path.
	NewFastState(g *graph.G, n int) (FastState, error)
}
