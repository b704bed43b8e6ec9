package sim

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"coordattack/internal/graph"
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	"coordattack/internal/run"
)

// echoMsg carries its origin so tests can audit the delivery plumbing.
type echoMsg struct {
	From  graph.ProcID
	Round int
}

func (echoMsg) CAMessage() {}

// echoProto records exactly which (sender, round) pairs each machine
// receives. Output = "received anything at all".
type echoProto struct{}

func (echoProto) Name() string { return "echo" }

func (echoProto) NewMachine(cfg protocol.Config) (protocol.Machine, error) {
	return &echoMachine{id: cfg.ID}, nil
}

type echoMachine struct {
	id   graph.ProcID
	got  []echoMsg
	last []protocol.Received
}

func (e *echoMachine) Send(round int, to graph.ProcID) protocol.Message {
	return echoMsg{From: e.id, Round: round}
}

func (e *echoMachine) Step(round int, received []protocol.Received) error {
	e.last = received
	for _, r := range received {
		e.got = append(e.got, r.Msg.(echoMsg))
	}
	return nil
}

func (e *echoMachine) Output() bool { return len(e.got) > 0 }

// parityProto is a tiny randomized protocol used for engine-equivalence
// tests: each machine draws one random bit, floods it, and outputs the
// parity of every bit it has seen (its own plus every received copy).
type parityProto struct{}

func (parityProto) Name() string { return "parity" }

type parityMsg struct{ Bit byte }

func (parityMsg) CAMessage() {}

type parityMachine struct {
	bit byte
	acc byte
}

func (parityProto) NewMachine(cfg protocol.Config) (protocol.Machine, error) {
	b, err := cfg.Tape.Bit()
	if err != nil {
		return nil, err
	}
	m := &parityMachine{bit: b, acc: b}
	if cfg.Input {
		m.acc ^= 1
	}
	return m, nil
}

func (p *parityMachine) Send(round int, to graph.ProcID) protocol.Message {
	return parityMsg{Bit: p.bit}
}

func (p *parityMachine) Step(round int, received []protocol.Received) error {
	for _, r := range received {
		p.acc ^= r.Msg.(parityMsg).Bit
	}
	return nil
}

func (p *parityMachine) Output() bool { return p.acc == 1 }

// nilProto violates the model by sending a nil message.
type nilProto struct{}

func (nilProto) Name() string { return "nil" }

func (nilProto) NewMachine(cfg protocol.Config) (protocol.Machine, error) {
	return nilMachine{}, nil
}

type nilMachine struct{}

func (nilMachine) Send(int, graph.ProcID) protocol.Message { return nil }
func (nilMachine) Step(int, []protocol.Received) error     { return nil }
func (nilMachine) Output() bool                            { return false }

func TestOutputsDeliveryFiltering(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{A: 1, B: 2}, {A: 2, B: 3}})
	r := run.MustNew(2)
	r.MustDeliver(1, 2, 1).MustDeliver(3, 2, 2)
	outs, err := Outputs(echoProto{}, g, r, SeedTapes(1))
	if err != nil {
		t.Fatal(err)
	}
	// Only process 2 received anything.
	if outs[1] || !outs[2] || outs[3] {
		t.Errorf("outputs = %v, want only process 2 true", outs)
	}
}

func TestExecuteTraceContents(t *testing.T) {
	g := graph.Pair()
	r := run.MustNew(2)
	r.AddInput(1)
	r.MustDeliver(1, 2, 1) // round 1: 1→2 delivered, 2→1 lost
	exec, err := Execute(echoProto{}, g, r, SeedTapes(2))
	if err != nil {
		t.Fatal(err)
	}
	if exec.N != 2 || len(exec.Locals) != 3 {
		t.Fatalf("trace shape wrong: N=%d locals=%d", exec.N, len(exec.Locals))
	}
	if !exec.Locals[1].Input || exec.Locals[2].Input {
		t.Error("inputs recorded wrongly")
	}
	r1 := exec.Locals[1].Rounds[0]
	if len(r1.Sent) != 1 || r1.Sent[0].To != 2 || !r1.Sent[0].Delivered {
		t.Errorf("process 1 round 1 sends = %+v", r1.Sent)
	}
	if len(r1.Received) != 0 {
		t.Errorf("process 1 round 1 received %v, want none (2→1 lost)", r1.Received)
	}
	r2 := exec.Locals[2].Rounds[0]
	if len(r2.Received) != 1 || r2.Received[0].From != 1 {
		t.Errorf("process 2 round 1 received %v, want from 1", r2.Received)
	}
	if len(r2.Sent) != 1 || r2.Sent[0].Delivered {
		t.Errorf("process 2 round 1 sends = %+v, want undelivered", r2.Sent)
	}
	if got, want := exec.Outcome(), protocol.PartialAttack; got != want {
		t.Errorf("echo outcome = %v, want %v (only 2 received)", got, want)
	}
}

func TestReceivedSortedBySender(t *testing.T) {
	g, err := graph.Star(4) // center 1
	if err != nil {
		t.Fatal(err)
	}
	r := run.MustNew(1)
	r.MustDeliver(4, 1, 1).MustDeliver(2, 1, 1).MustDeliver(3, 1, 1)
	exec, err := Execute(echoProto{}, g, r, SeedTapes(3))
	if err != nil {
		t.Fatal(err)
	}
	got := exec.Locals[1].Rounds[0].Received
	if len(got) != 3 {
		t.Fatalf("center received %d messages, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].From >= got[i].From {
			t.Errorf("inbox not sorted by sender: %v", got)
		}
	}
}

func TestNilMessageRejected(t *testing.T) {
	g := graph.Pair()
	r := run.MustNew(1)
	if _, err := Outputs(nilProto{}, g, r, SeedTapes(4)); err == nil {
		t.Error("loop engine accepted nil message")
	}
	if _, err := Execute(nilProto{}, g, r, SeedTapes(4)); err == nil {
		t.Error("trace engine accepted nil message")
	}
	if _, err := ConcurrentOutputs(nilProto{}, g, r, SeedTapes(4)); err == nil {
		t.Error("concurrent engine accepted nil message")
	}
}

func TestRunGraphMismatchRejected(t *testing.T) {
	g := graph.Pair()
	r := run.MustNew(1)
	r.MustDeliver(1, 2, 1)
	bad := graph.MustNew(2, nil) // no edges: delivery 1→2 is a non-edge
	if _, err := Outputs(echoProto{}, bad, r, SeedTapes(5)); err == nil {
		t.Error("run with non-edge delivery accepted")
	}
	_ = g
}

func TestTapeExhaustionSurfaces(t *testing.T) {
	g := graph.Pair()
	r := run.MustNew(1)
	tapes := func(i graph.ProcID) *rng.Tape {
		bounded, err := rng.NewBoundedTape(uint64(i), 0+1) // 1 bit budget... parity needs exactly 1
		if err != nil {
			t.Fatal(err)
		}
		return bounded
	}
	// parityProto draws exactly one bit per machine: should succeed.
	if _, err := Outputs(parityProto{}, g, r, tapes); err != nil {
		t.Fatalf("1-bit budget should suffice for parity: %v", err)
	}
}

func TestOutcomeClassification(t *testing.T) {
	g := graph.Pair()
	// No deliveries: echo outputs false everywhere → NA.
	r := run.MustNew(1)
	oc, err := Outcome(echoProto{}, g, r, SeedTapes(6))
	if err != nil {
		t.Fatal(err)
	}
	if oc != protocol.NoAttack {
		t.Errorf("outcome = %v, want NA", oc)
	}
	// All deliveries: both received → TA.
	good, err := run.Good(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	oc, err = Outcome(echoProto{}, g, good, SeedTapes(6))
	if err != nil {
		t.Fatal(err)
	}
	if oc != protocol.TotalAttack {
		t.Errorf("outcome = %v, want TA", oc)
	}
}

func TestEnginesAgreeOnRandomRuns(t *testing.T) {
	graphs := []*graph.G{graph.Pair()}
	if g, err := graph.Ring(4); err == nil {
		graphs = append(graphs, g)
	}
	if g, err := graph.Complete(5); err == nil {
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		tape := rng.NewTape(uint64(g.NumVertices()))
		for trial := 0; trial < 30; trial++ {
			r, err := run.RandomSubset(g, 4, tape)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(trial)
			loop, err := Outputs(parityProto{}, g, r, SeedTapes(seed))
			if err != nil {
				t.Fatal(err)
			}
			conc, err := ConcurrentOutputs(parityProto{}, g, r, SeedTapes(seed))
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= g.NumVertices(); i++ {
				if loop[i] != conc[i] {
					t.Fatalf("%v trial %d: engines disagree at %d: loop=%v conc=%v (run %v)",
						g, trial, i, loop, conc, r)
				}
			}
		}
	}
}

func TestExecuteDeterministic(t *testing.T) {
	g, err := graph.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := run.RandomSubset(g, 3, rng.NewTape(8))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Outputs(parityProto{}, g, r, SeedTapes(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Outputs(parityProto{}, g, r, SeedTapes(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed executions differ: %v vs %v", a, b)
		}
	}
}

func TestSendSeesPreRoundState(t *testing.T) {
	// The model sends all round-r messages from q^{r-1}: a machine's Step
	// in round r must not influence its own sends in round r. stateProto
	// sends its step counter; receivers check they always see the
	// sender's previous-round counter.
	g := graph.Pair()
	good, err := run.Good(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := Execute(&counterProto{t: t}, g, good, SeedTapes(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		for round := 1; round <= 3; round++ {
			rec := exec.Locals[i].Rounds[round-1].Received
			for _, m := range rec {
				if got := m.Msg.(counterMsg).Steps; got != round-1 {
					t.Errorf("round %d: process %d saw counter %d, want %d", round, i, got, round-1)
				}
			}
		}
	}
}

type counterProto struct{ t *testing.T }

func (*counterProto) Name() string { return "counter" }

type counterMsg struct{ Steps int }

func (counterMsg) CAMessage() {}

type counterMachine struct{ steps int }

func (*counterProto) NewMachine(cfg protocol.Config) (protocol.Machine, error) {
	return &counterMachine{}, nil
}

func (c *counterMachine) Send(round int, to graph.ProcID) protocol.Message {
	return counterMsg{Steps: c.steps}
}

func (c *counterMachine) Step(round int, received []protocol.Received) error {
	c.steps++
	return nil
}

func (c *counterMachine) Output() bool { return false }

func TestBarrierStress(t *testing.T) {
	const parties, cycles = 8, 200
	bar := newBarrier(parties)
	var phase atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				bar.Await()
				if got := phase.Load(); got != int64(c) {
					t.Errorf("party saw phase %d during cycle %d", got, c)
					return
				}
				bar.Await()
				if p0 := phase.CompareAndSwap(int64(c), int64(c+1)); p0 {
					// exactly one party advances the phase per cycle
					_ = p0
				}
				bar.Await()
			}
		}()
	}
	wg.Wait()
	if got := phase.Load(); got != cycles {
		t.Errorf("completed %d phases, want %d", got, cycles)
	}
}

func TestConfigValidate(t *testing.T) {
	g := graph.Pair()
	tape := rng.NewTape(1)
	tests := []struct {
		name string
		cfg  protocol.Config
		ok   bool
	}{
		{"valid", protocol.Config{ID: 1, G: g, N: 3, Input: true, Tape: tape}, true},
		{"nil graph", protocol.Config{ID: 1, N: 3, Tape: tape}, false},
		{"bad id", protocol.Config{ID: 9, G: g, N: 3, Tape: tape}, false},
		{"zero id", protocol.Config{ID: 0, G: g, N: 3, Tape: tape}, false},
		{"bad n", protocol.Config{ID: 1, G: g, N: 0, Tape: tape}, false},
		{"nil tape", protocol.Config{ID: 1, G: g, N: 3}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate() err = %v, ok=%v", err, tc.ok)
			}
		})
	}
}

func TestClassify(t *testing.T) {
	tests := []struct {
		outs []bool
		want protocol.Outcome
	}{
		{[]bool{false, false, false}, protocol.NoAttack},
		{[]bool{false, true, true}, protocol.TotalAttack},
		{[]bool{false, true, false}, protocol.PartialAttack},
		{[]bool{false, false, true, true}, protocol.PartialAttack},
	}
	for _, tc := range tests {
		if got := protocol.Classify(tc.outs); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.outs, got, tc.want)
		}
	}
	for _, o := range []protocol.Outcome{protocol.NoAttack, protocol.TotalAttack, protocol.PartialAttack} {
		if s := o.String(); s == "" || strings.HasPrefix(s, "Outcome(") {
			t.Errorf("String for %d = %q", int(o), s)
		}
	}
	if s := protocol.Outcome(99).String(); !strings.HasPrefix(s, "Outcome(") {
		t.Errorf("unknown outcome String = %q", s)
	}
}

func TestQuickEnginesAgree(t *testing.T) {
	g, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(runSeed, tapeSeed uint64) bool {
		r, err := run.RandomSubset(g, 3, rng.NewTape(runSeed))
		if err != nil {
			return false
		}
		loop, err := Outputs(parityProto{}, g, r, SeedTapes(tapeSeed))
		if err != nil {
			return false
		}
		conc, err := ConcurrentOutputs(parityProto{}, g, r, SeedTapes(tapeSeed))
		if err != nil {
			return false
		}
		for i := range loop {
			if loop[i] != conc[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
