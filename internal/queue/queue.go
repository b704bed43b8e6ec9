// Package queue is coordd's admission layer: a fair-share scheduler
// over the flows of one scheduling class (this file) and a crash-safe
// on-disk pending-queue journal (journal.go). Together they replace the
// service layer's bounded FIFO channel with the discipline the paper
// demands of its protocols — progress must be fair under overload, and
// accepted work must never be lost to a crash.
//
// coordd runs one Sched per scheduling class, each drained by its own
// workers, so a class never waits on the other's running work. Within a
// Sched, pending items group into flows — every sweep is one flow of
// the sweep class, and interactive submitters share the one
// "interactive" flow — and a round-robin pass across the active flows
// picks the next item, so two sweeps alternate pops instead of the
// first draining before the second starts. Within a flow, items order
// by priority (higher first), then deadline (earlier first), then
// admission order.
package queue

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Class names a scheduling class. The scheduler itself serves one class
// and never reads it; coordd keeps one Sched per class.
type Class string

const (
	// ClassInteractive is individually submitted jobs, which share one
	// flow.
	ClassInteractive Class = "interactive"
	// ClassSweep is sweep cells, one flow per sweep id.
	ClassSweep Class = "sweep"
)

// ErrFull is returned by Push when the scheduler holds MaxDepth items.
var ErrFull = fmt.Errorf("queue: scheduler full")

// Item is one pending unit of work. Flow/Priority/Deadline are
// scheduling inputs; Key and Class label the item for the caller, and
// Payload is the caller's job, all opaque to the scheduler. An Item
// must be pushed at most once.
type Item struct {
	Key      string
	Flow     string
	Class    Class
	Priority int
	Deadline time.Time
	Enqueued time.Time
	Payload  any

	seq   uint64
	index int // position in its flow's heap; -1 once popped or removed
}

// SchedOptions tunes NewSched.
type SchedOptions struct {
	// MaxDepth bounds the pending items across every flow; Push past it
	// returns ErrFull. 0 means 64. PushReplay ignores the bound —
	// accepted work coming back must never be dropped.
	MaxDepth int
}

// Sched is the fair-share scheduler. All methods are safe for
// concurrent use; Next blocks until an item is available or the
// scheduler is closed and empty.
type Sched struct {
	maxDepth int

	mu     sync.Mutex
	cond   *sync.Cond
	flows  map[string]*flow
	ring   []*flow // active (non-empty) flows in round-robin order
	cursor int
	depth  int
	seq    uint64
	closed bool
}

// flow is one fairness unit: a heap of pending items.
type flow struct {
	id    string
	items itemHeap
}

// NewSched returns a running scheduler.
func NewSched(opts SchedOptions) *Sched {
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 64
	}
	s := &Sched{
		maxDepth: opts.MaxDepth,
		flows:    make(map[string]*flow),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Push admits it, or returns ErrFull when the scheduler already holds
// MaxDepth items. Closed schedulers refuse everything (the caller's
// drain check fires first in practice).
func (s *Sched) Push(it *Item) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("queue: scheduler closed")
	}
	if s.depth >= s.maxDepth {
		return ErrFull
	}
	s.pushLocked(it)
	return nil
}

// PushReplay admits it regardless of MaxDepth: accepted work — a
// journal replay on restart, an adopted steal, a sweep's cells — must
// never be dropped, even when the backlog exceeds the configured bound.
func (s *Sched) PushReplay(it *Item) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.pushLocked(it)
}

func (s *Sched) pushLocked(it *Item) {
	s.seq++
	it.seq = s.seq
	if it.Enqueued.IsZero() {
		it.Enqueued = time.Now()
	}
	f, ok := s.flows[it.Flow]
	if !ok {
		f = &flow{id: it.Flow}
		s.flows[it.Flow] = f
		s.ring = append(s.ring, f)
	}
	heap.Push(&f.items, it)
	s.depth++
	s.cond.Signal()
}

// Next blocks until an item is available and returns it, or returns
// ok=false once the scheduler is closed and drained. After Close, Next
// keeps yielding the remaining backlog before reporting empty — drain
// semantics, matching the old closed-channel behavior.
func (s *Sched) Next() (*Item, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.depth == 0 {
		if s.closed {
			return nil, false
		}
		s.cond.Wait()
	}
	return s.popLocked(), true
}

// popLocked runs one round-robin step: the flow at the cursor yields
// its next item, then the cursor advances. Flows leave the ring the
// moment they empty, so round-robin is always over flows that actually
// have work.
func (s *Sched) popLocked() *Item {
	if s.cursor >= len(s.ring) {
		s.cursor = 0
	}
	f := s.ring[s.cursor]
	it := heap.Pop(&f.items).(*Item)
	s.depth--
	if f.items.Len() == 0 {
		s.dropFlowLocked(s.cursor)
	} else {
		s.cursor++
	}
	return it
}

// dropFlowLocked removes the flow at ring index i, keeping the cursor
// on the flow that slid into its place (or wrapping).
func (s *Sched) dropFlowLocked(i int) {
	delete(s.flows, s.ring[i].id)
	s.ring = append(s.ring[:i], s.ring[i+1:]...)
	if s.cursor > i {
		s.cursor--
	}
	if s.cursor >= len(s.ring) {
		s.cursor = 0
	}
}

// Remove withdraws a still-pending item (a cancelled job) so it neither
// occupies capacity nor reaches a worker. Reports whether it was still
// pending — false means a worker already popped it (or it was never
// pushed). Emptied flows leave the ring immediately: a cancelled sweep
// must not leave its flow registered, or a long-lived daemon's ring
// would grow without bound.
func (s *Sched) Remove(it *Item) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if it == nil || it.index < 0 || it.seq == 0 {
		return false
	}
	f, ok := s.flows[it.Flow]
	if !ok {
		return false
	}
	if it.index >= f.items.Len() || f.items[it.index] != it {
		return false
	}
	heap.Remove(&f.items, it.index)
	s.depth--
	if f.items.Len() == 0 {
		s.dropFlowLocked(slices.Index(s.ring, f))
	}
	return true
}

// Steal pops up to n pending items for donation to a peer, using the
// same round-robin discipline as Next — the donated work is
// exactly the work that would have run next locally, so stealing never
// inverts priorities. Non-blocking: an idle or closed scheduler grants
// nothing. Emptied flows are reaped exactly as on the Next path.
func (s *Sched) Steal(n int) []*Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Item
	for len(out) < n && s.depth > 0 {
		out = append(out, s.popLocked())
	}
	return out
}

// Close stops admission. Workers drain the backlog through Next, which
// reports empty only after the last item is gone.
func (s *Sched) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Depth reports the total pending items.
func (s *Sched) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// Flows reports the registered fairness flows — the ring size. The
// invariant a long-lived daemon depends on: every registered flow holds
// at least one pending item, so Flows is bounded by Depth and returns
// to at most the active-submitter count once backlogs settle. The
// coordd_queue_flows gauge watches exactly this.
func (s *Sched) Flows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flows)
}

// OldestAge reports how long the oldest pending item has waited, or 0
// when the queue is empty — the head-of-line latency gauge.
func (s *Sched) OldestAge(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var oldest time.Time
	for _, f := range s.flows {
		for _, it := range f.items {
			if oldest.IsZero() || it.Enqueued.Before(oldest) {
				oldest = it.Enqueued
			}
		}
	}
	if oldest.IsZero() {
		return 0
	}
	if d := now.Sub(oldest); d > 0 {
		return d
	}
	return 0
}

// itemHeap orders a flow's items: priority (higher first), then
// deadline (earlier first, with no-deadline last), then admission
// order.
type itemHeap []*Item

func (h itemHeap) Len() int { return len(h) }

func (h itemHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if !a.Deadline.Equal(b.Deadline) {
		if a.Deadline.IsZero() {
			return false
		}
		if b.Deadline.IsZero() {
			return true
		}
		return a.Deadline.Before(b.Deadline)
	}
	return a.seq < b.seq
}

func (h itemHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *itemHeap) Push(x any) {
	it := x.(*Item)
	it.index = len(*h)
	*h = append(*h, it)
}

func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*h = old[:n-1]
	return it
}
