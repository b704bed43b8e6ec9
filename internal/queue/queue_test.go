package queue

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func item(flow string, class Class, key string) *Item {
	return &Item{Key: key, Flow: flow, Class: class, Enqueued: time.Now()}
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

// TestFairShareRoundRobin: a big sweep flow and a trickle of interactive
// jobs must alternate — the sweep cannot drain first.
func TestFairShareRoundRobin(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 64})
	for i := 0; i < 10; i++ {
		if err := s.Push(item("sw1", ClassSweep, fmt.Sprintf("cell%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.Push(item("interactive", ClassInteractive, fmt.Sprintf("job%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	order := drainAll(s)
	// All three interactive jobs must appear within the first six pops:
	// round-robin over two flows yields at worst sweep,inter,sweep,inter,…
	seen := 0
	for i, it := range order {
		if it.Class == ClassInteractive {
			seen++
			if i >= 6 {
				t.Errorf("interactive job %s popped at position %d — starved by the sweep", it.Key, i)
			}
		}
	}
	if seen != 3 || len(order) != 13 {
		t.Fatalf("drained %d items, %d interactive, want 13/3", len(order), seen)
	}
}

// TestPriorityAndDeadlineOrdering: within one flow, higher priority
// first, then earlier deadline, then admission order.
func TestPriorityAndDeadlineOrdering(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 16})
	now := time.Now()
	low := item("interactive", ClassInteractive, "low")
	low.Priority = -1
	urgent := item("interactive", ClassInteractive, "urgent")
	urgent.Priority = 2
	soon := item("interactive", ClassInteractive, "soon")
	soon.Deadline = now.Add(time.Second)
	later := item("interactive", ClassInteractive, "later")
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

// TestWeightedClasses: interactive weight 2 takes two pops per sweep pop.
func TestWeightedClasses(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 32, Weight: func(c Class) int {
		if c == ClassInteractive {
			return 2
		}
		return 1
	}})
	for i := 0; i < 4; i++ {
		if err := s.Push(item("interactive", ClassInteractive, fmt.Sprintf("i%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := s.Push(item("sw", ClassSweep, fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := keys(drainAll(s))
	want := []string{"i0", "i1", "s0", "i2", "i3", "s1", "s2", "s3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weighted pop order %v, want %v", got, want)
		}
	}
}

// TestDepthBoundAndReplayBypass: Push refuses past MaxDepth, PushReplay
// never does.
func TestDepthBoundAndReplayBypass(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 2})
	if err := s.Push(item("interactive", ClassInteractive, "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(item("interactive", ClassInteractive, "b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(item("interactive", ClassInteractive, "c")); err != ErrFull {
		t.Fatalf("third push err = %v, want ErrFull", err)
	}
	s.PushReplay(item("interactive", ClassInteractive, "replayed"))
	if d := s.Depth(); d != 3 {
		t.Fatalf("depth = %d, want 3 after replay bypass", d)
	}
	if got := keys(drainAll(s)); len(got) != 3 {
		t.Fatalf("drained %v", got)
	}
}

// TestDepthBoundIsPerClass: a class at MaxDepth refuses only its own
// pushes, and a pop or a remove frees exactly its own class's capacity.
func TestDepthBoundIsPerClass(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 2})
	for _, it := range []*Item{
		item("interactive", ClassInteractive, "i1"),
		item("interactive", ClassInteractive, "i2"),
		item("sw", ClassSweep, "s1"),
		item("sw", ClassSweep, "s2"),
	} {
		if err := s.Push(it); err != nil {
			t.Fatalf("push %s: %v", it.Key, err)
		}
	}
	if err := s.Push(item("interactive", ClassInteractive, "i3")); err != ErrFull {
		t.Fatalf("third interactive push err = %v, want ErrFull", err)
	}
	s3 := item("sw", ClassSweep, "s3")
	if err := s.Push(s3); err != ErrFull {
		t.Fatalf("third sweep push err = %v, want ErrFull", err)
	}
	s.PushReplay(s3)
	if d := s.DepthByClass(); d[ClassInteractive] != 2 || d[ClassSweep] != 3 || s.Depth() != 5 {
		t.Fatalf("depth by class = %v, total %d, want 2/3/5", d, s.Depth())
	}
	if !s.Remove(s3) {
		t.Fatal("Remove(s3) = false while pending")
	}
	if it, _ := s.Next(); it.Key != "i1" {
		t.Fatalf("first pop %s, want i1 (the interactive flow is first in the ring)", it.Key)
	}
	if err := s.Push(item("interactive", ClassInteractive, "i3")); err != nil {
		t.Fatalf("interactive push after an interactive pop: %v", err)
	}
	if err := s.Push(item("sw", ClassSweep, "s4")); err != ErrFull {
		t.Fatalf("sweep push after an interactive pop err = %v, want ErrFull", err)
	}
	if d := s.DepthByClass(); d[ClassInteractive] != 2 || d[ClassSweep] != 2 {
		t.Fatalf("depth by class = %v, want 2/2", d)
	}
}

// TestRemoveWithdrawsPending: a removed item neither reaches Next nor
// counts against depth; removing twice (or after pop) reports false.
func TestRemoveWithdrawsPending(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 8})
	a := item("sw", ClassSweep, "a")
	b := item("sw", ClassSweep, "b")
	c := item("interactive", ClassInteractive, "c")
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

// TestDepthByClassAndOldestAge: the metrics views.
func TestDepthByClassAndOldestAge(t *testing.T) {
	s := NewSched(SchedOptions{MaxDepth: 8})
	old := item("interactive", ClassInteractive, "old")
	old.Enqueued = time.Now().Add(-3 * time.Second)
	if err := s.Push(old); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(item("sw", ClassSweep, "s1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(item("sw", ClassSweep, "s2")); err != nil {
		t.Fatal(err)
	}
	d := s.DepthByClass()
	if d[ClassInteractive] != 1 || d[ClassSweep] != 2 {
		t.Fatalf("depth by class = %v", d)
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
	if err := s.Push(item("interactive", ClassInteractive, "late")); err != nil {
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
	if err := s.Push(item("interactive", ClassInteractive, "backlog")); err != nil {
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
				if err := s.Push(item(flow, ClassSweep, fmt.Sprintf("p%d-%d", p, i))); err != nil {
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
