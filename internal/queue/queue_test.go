package queue

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func item(flow, key string) *Item {
	return &Item{Key: key, Flow: flow, Enqueued: time.Now()}
}

// drainAll closes the scheduler and pops everything left, in order.
func drainAll(s *Sched) []*Item {
	s.Close()
	var out []*Item
	for {
		it, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, it)
	}
}

// TestFairShareRoundRobin: a big sweep flow and a small one pushed
// after it must alternate — the first sweep cannot drain first.
func TestFairShareRoundRobin(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 64})
	for i := 0; i < 10; i++ {
		if err := s.Push(item("sw1", fmt.Sprintf("cell%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.Push(item("sw2", fmt.Sprintf("late%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	order := drainAll(s)
	// All three cells of the second sweep must appear within the first
	// six pops: round-robin over two flows yields sw1,sw2,sw1,sw2,…
	seen := 0
	for i, it := range order {
		if it.Flow == "sw2" {
			seen++
			if i >= 6 {
				t.Errorf("cell %s popped at position %d — starved by the first sweep", it.Key, i)
			}
		}
	}
	if seen != 3 || len(order) != 13 {
		t.Fatalf("drained %d items, %d of the second sweep, want 13/3", len(order), seen)
	}
}

// TestPriorityAndDeadlineOrdering: within one flow, higher priority
// first, then earlier deadline, then admission order.
func TestPriorityAndDeadlineOrdering(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 16})
	now := time.Now()
	low := item("interactive", "low")
	low.Priority = -1
	urgent := item("interactive", "urgent")
	urgent.Priority = 2
	soon := item("interactive", "soon")
	soon.Deadline = now.Add(time.Second)
	later := item("interactive", "later")
	later.Deadline = now.Add(time.Hour)
	for _, it := range []*Item{low, later, soon, urgent} {
		if err := s.Push(it); err != nil {
			t.Fatal(err)
		}
	}
	got := keys(drainAll(s))
	want := []string{"urgent", "soon", "later", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestDepthBoundAndReplayBypass: Push refuses past MaxDepth, PushReplay
// never does.
func TestDepthBoundAndReplayBypass(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 2})
	if err := s.Push(item("interactive", "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(item("interactive", "b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(item("interactive", "c")); err != ErrFull {
		t.Fatalf("third push err = %v, want ErrFull", err)
	}
	s.PushReplay(item("interactive", "replayed"))
	if d := s.Depth(); d != 3 {
		t.Fatalf("depth = %d, want 3 after replay bypass", d)
	}
	if got := keys(drainAll(s)); len(got) != 3 {
		t.Fatalf("drained %v", got)
	}
}

// TestDepthBoundSpansFlows: MaxDepth bounds the pending items of every
// flow together, and a pop or a remove frees exactly one slot.
func TestDepthBoundSpansFlows(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 2})
	a1 := item("a", "a1")
	if err := s.Push(a1); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(item("b", "b1")); err != nil {
		t.Fatal(err)
	}
	a2 := item("a", "a2")
	if err := s.Push(a2); err != ErrFull {
		t.Fatalf("third push err = %v, want ErrFull", err)
	}
	s.PushReplay(a2)
	if d := s.Depth(); d != 3 {
		t.Fatalf("depth = %d, want 3 after replay bypass", d)
	}
	if !s.Remove(a2) {
		t.Fatal("Remove(a2) = false while pending")
	}
	if err := s.Push(item("b", "b2")); err != ErrFull {
		t.Fatalf("push at the bound after a remove err = %v, want ErrFull", err)
	}
	if it, _ := s.Next(); it != a1 {
		t.Fatalf("first pop %s, want a1 (flow a is first in the ring)", it.Key)
	}
	if err := s.Push(item("b", "b2")); err != nil {
		t.Fatalf("push after a pop: %v", err)
	}
	if d := s.Depth(); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
}

// TestRemoveWithdrawsPending: a removed item neither reaches Next nor
// counts against depth; removing twice (or after pop) reports false.
func TestRemoveWithdrawsPending(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 8})
	a := item("sw", "a")
	b := item("sw", "b")
	c := item("interactive", "c")
	for _, it := range []*Item{a, b, c} {
		if err := s.Push(it); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Remove(b) {
		t.Fatal("Remove(b) = false, want true while pending")
	}
	if s.Remove(b) {
		t.Fatal("second Remove(b) = true")
	}
	if d := s.Depth(); d != 2 {
		t.Fatalf("depth after remove = %d, want 2", d)
	}
	got := keys(drainAll(s))
	for _, k := range got {
		if k == "b" {
			t.Fatal("removed item still popped")
		}
	}
	if len(got) != 2 {
		t.Fatalf("drained %v, want 2 items", got)
	}
	if s.Remove(a) {
		t.Fatal("Remove of an already-popped item = true")
	}
}

// TestOldestAge: the head-of-line wait gauge.
func TestOldestAge(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 8})
	old := item("interactive", "old")
	old.Enqueued = time.Now().Add(-3 * time.Second)
	if err := s.Push(item("sw", "s1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(old); err != nil {
		t.Fatal(err)
	}
	if age := s.OldestAge(time.Now()); age < 2*time.Second {
		t.Fatalf("oldest age = %v, want >= 2s", age)
	}
	drainAll(s)
	if age := s.OldestAge(time.Now()); age != 0 {
		t.Fatalf("oldest age on empty queue = %v, want 0", age)
	}
}

// TestNextBlocksUntilPushAndCloseDrains: Next waits for work; Close
// lets the backlog drain before reporting empty.
func TestNextBlocksUntilPushAndCloseDrains(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 8})
	got := make(chan *Item, 1)
	go func() {
		it, ok := s.Next()
		if !ok {
			close(got)
			return
		}
		got <- it
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Push(item("interactive", "late")); err != nil {
		t.Fatal(err)
	}
	select {
	case it := <-got:
		if it == nil || it.Key != "late" {
			t.Fatalf("blocked Next returned %v", it)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not wake on Push")
	}
	if err := s.Push(item("interactive", "backlog")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if it, ok := s.Next(); !ok || it.Key != "backlog" {
		t.Fatalf("Next after Close = %v/%v, want the backlog item", it, ok)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("Next on closed empty scheduler = ok")
	}
}

// TestConcurrentProducersConsumers: every pushed item is delivered
// exactly once under contention (run with -race).
func TestConcurrentProducersConsumers(t *testing.T) {
	const producers, perProducer, consumers = 8, 50, 4
	s := NewSched(SchedOptions{MaxDepth: producers * perProducer})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			flow := fmt.Sprintf("flow%d", p%3)
			for i := 0; i < perProducer; i++ {
				if err := s.Push(item(flow, fmt.Sprintf("p%d-%d", p, i))); err != nil {
					t.Errorf("push: %v", err)
				}
			}
		}(p)
	}
	seen := make(chan string, producers*perProducer)
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				it, ok := s.Next()
				if !ok {
					return
				}
				seen <- it.Key
			}
		}()
	}
	wg.Wait()
	s.Close()
	cg.Wait()
	close(seen)
	got := make(map[string]int)
	for k := range seen {
		got[k]++
	}
	if len(got) != producers*perProducer {
		t.Fatalf("delivered %d distinct items, want %d", len(got), producers*perProducer)
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("item %s delivered %d times", k, n)
		}
	}
}

func keys(items []*Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Key
	}
	return out
}
