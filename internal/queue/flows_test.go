package queue

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The round-robin ring must never retain an empty flow: after any interleaving
// of pushes, pops, and removes, every registered flow still holds at
// least one item, and a fully drained scheduler registers zero flows.
// This is the property that keeps a long-lived daemon's ring from
// growing one dead flow per settled sweep.
func TestFlowsReapedPropertyRandomInterleaving(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	s := NewSched(SchedOptions{MaxDepth: 10_000})
	var pending []*Item
	checkInvariant := func(step int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.flows) != len(s.ring) {
			t.Fatalf("step %d: flows map (%d) and ring (%d) diverged", step, len(s.flows), len(s.ring))
		}
		for id, f := range s.flows {
			if f.items.Len() == 0 {
				t.Fatalf("step %d: empty flow %q still registered", step, id)
			}
		}
		if s.depth == 0 && len(s.flows) != 0 {
			t.Fatalf("step %d: drained scheduler still registers %d flows", step, len(s.flows))
		}
	}
	for step := 0; step < 5000; step++ {
		switch op := r.Intn(3); {
		case op == 0 || len(pending) == 0: // push onto one of 8 sweep flows
			it := &Item{
				Key:      fmt.Sprintf("k%d", step),
				Flow:     fmt.Sprintf("sw%d", r.Intn(8)),
				Priority: r.Intn(5) - 2,
			}
			if err := s.Push(it); err != nil {
				t.Fatalf("step %d: push: %v", step, err)
			}
			pending = append(pending, it)
		case op == 1: // pop
			it, ok := s.Next()
			if !ok {
				t.Fatalf("step %d: Next returned closed", step)
			}
			for i, p := range pending {
				if p == it {
					pending = append(pending[:i], pending[i+1:]...)
					break
				}
			}
		default: // remove a random pending item (cancel-withdrawal)
			i := r.Intn(len(pending))
			if !s.Remove(pending[i]) {
				t.Fatalf("step %d: Remove of a pending item returned false", step)
			}
			pending = append(pending[:i], pending[i+1:]...)
		}
		checkInvariant(step)
	}
	// Drain completely: zero flows must remain.
	for range pending {
		if _, ok := s.Next(); !ok {
			t.Fatal("drain: Next returned closed")
		}
	}
	if got := s.Flows(); got != 0 {
		t.Fatalf("drained scheduler registers %d flows, want 0", got)
	}
	if got := s.Depth(); got != 0 {
		t.Fatalf("drained scheduler depth %d, want 0", got)
	}
}

// A cancelled sweep's flow must be reaped the moment its last pending
// cell is withdrawn — the sweep-cancellation shape specifically.
func TestFlowsReapedOnSweepCancelWithdrawal(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 1000})
	for sweep := 0; sweep < 50; sweep++ {
		flow := fmt.Sprintf("sw%06d", sweep)
		cells := make([]*Item, 8)
		for i := range cells {
			cells[i] = &Item{Key: fmt.Sprintf("%s-c%d", flow, i), Flow: flow}
			if err := s.Push(cells[i]); err != nil {
				t.Fatal(err)
			}
		}
		// A couple of cells reach workers, the rest are cancel-withdrawn.
		s.Next()
		s.Next()
		for _, it := range cells {
			s.Remove(it) // popped items report false; fine
		}
		if got := s.Flows(); got != 0 {
			t.Fatalf("after sweep %d cancelled: %d flows registered, want 0", sweep, got)
		}
	}
	if d := s.Depth(); d != 0 {
		t.Fatalf("depth %d after all sweeps cancelled", d)
	}
}

// Withdrawing the last item of the flow at the cursor must hand its
// turn to the flow that slides into its ring slot, not skip that flow:
// the remaining flows keep strict alternation.
func TestRemoveOfCursorFlowKeepsRoundRobin(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 100})
	// Ring order swA, mid, swB.
	var mid []*Item
	for i := 0; i < 3; i++ {
		if err := s.Push(&Item{Key: fmt.Sprintf("a%d", i), Flow: "swA"}); err != nil {
			t.Fatal(err)
		}
		it := &Item{Key: fmt.Sprintf("m%d", i), Flow: "mid"}
		if err := s.Push(it); err != nil {
			t.Fatal(err)
		}
		mid = append(mid, it)
		if err := s.Push(&Item{Key: fmt.Sprintf("b%d", i), Flow: "swB"}); err != nil {
			t.Fatal(err)
		}
	}
	// One pop from swA moves the cursor onto mid, whose items are then
	// all cancel-withdrawn.
	if first, _ := s.Next(); first.Flow != "swA" {
		t.Fatalf("first pop from %s, want swA", first.Flow)
	}
	for _, it := range mid {
		if !s.Remove(it) {
			t.Fatalf("Remove(%s) = false while pending", it.Key)
		}
	}
	order := []string{"swA"}
	for i := 0; i < 5; i++ {
		it, ok := s.Next()
		if !ok {
			t.Fatal("unexpected close")
		}
		order = append(order, it.Flow)
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("sweep flows did not alternate after the cursor flow left: %v", order)
		}
	}
}

func TestStealPopsInDRROrderAndReapsFlows(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 100})
	for i := 0; i < 3; i++ {
		if err := s.Push(&Item{Key: fmt.Sprintf("s%d", i), Flow: "sw1", Enqueued: time.Unix(int64(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Push(&Item{Key: "hot", Flow: "sw2", Priority: 10}); err != nil {
		t.Fatal(err)
	}

	got := s.Steal(10) // asks for more than exists: grants everything
	if len(got) != 4 {
		t.Fatalf("stole %d items, want 4", len(got))
	}
	if s.Depth() != 0 || s.Flows() != 0 {
		t.Fatalf("post-steal depth=%d flows=%d, want 0/0", s.Depth(), s.Flows())
	}
	// Stolen items are no longer removable (index reset on pop).
	if s.Remove(got[0]) {
		t.Fatal("stolen item still removable")
	}
	if extra := s.Steal(1); len(extra) != 0 {
		t.Fatalf("empty scheduler granted %d items", len(extra))
	}
}
