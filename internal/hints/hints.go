// Package hints is the durable hinted-handoff log behind the cluster's
// active-healing layer: when a replica push fails because the target
// peer is down, the sender queues a hint — "peer P is owed key K" —
// instead of waiting for the next anti-entropy pass, and the peer
// failure detector drains the hints the moment the peer answers a probe
// again.
//
// Hints are tiny on purpose. Results are content-addressed and already
// durable in the sender's local store, so a hint carries only the
// (peer, key) pair; delivery re-reads the body from the store. Losing a
// hint is therefore never a correctness loss — the anti-entropy repair
// loop remains the backstop — which is why the log can shed oldest
// hints under a byte cap rather than refuse writes.
//
// The bytes on disk are internal/wal's, shared with the pending-queue
// journal: checksummed `coordd-hints/v1` record lines in sequence-
// numbered segments, torn-tail-tolerant replay, compaction, and
// degrade-to-memory-only on any write error, and the live set of pending
// hints in queue order. This file holds only what the records mean:
// per-peer dedup and counts, and oldest-first shedding.
package hints

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"coordattack/internal/store"
	"coordattack/internal/wal"
)

// logVersion prefixes every record line. Unrecognized versions are
// skipped on replay, never misparsed.
const logVersion = "coordd-hints/v1"

// Record ops.
const (
	// OpAdd queues one hint: peer is owed key.
	OpAdd = "add"
	// OpDone tombstones a hint: delivered, or shed under the byte cap.
	OpDone = "done"
)

// Record is one hint-log entry.
type Record struct {
	Op   string `json:"op"`
	Peer string `json:"peer"`
	Key  string `json:"key"`
	// At is the queue wall-clock in unix nanoseconds, preserved across
	// replay so hint-age observations survive a restart.
	At int64 `json:"at,omitempty"`
}

// Options tunes Open.
type Options struct {
	// FS overrides the filesystem; nil means the real disk. Chaos
	// harnesses inject faults here.
	FS store.FS
	// Logf receives one line per degradation, truncation, and shed
	// event; nil discards them.
	Logf func(format string, args ...any)
	// MaxBytes caps the encoded size of the pending hint set; once an
	// Add would exceed it the oldest pending hints are shed (tombstoned
	// and counted in Stats.Dropped) until the new hint fits. <= 0 means
	// unlimited.
	MaxBytes int64
}

// Stats is a point-in-time snapshot for /metrics and the admin surface.
type Stats struct {
	// Pending is the current queued-hint count across all peers.
	Pending int `json:"pending"`
	// Peers is how many distinct peers have pending hints.
	Peers int `json:"peers"`
	// Adds counts hints ever queued (dedup suppresses re-adds of an
	// already-pending pair); Delivered counts hints cleared by delivery;
	// Dropped counts hints shed under MaxBytes.
	Adds      int64 `json:"adds"`
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
	// Replayed is how many pending hints the log recovered at open.
	Replayed int `json:"replayed"`
	// Truncated counts undecodable lines skipped on replay.
	Truncated int64 `json:"truncated"`
	// Degraded is true once a write error demoted the log to
	// memory-only.
	Degraded bool `json:"degraded"`
}

// Log is the hinted-handoff queue. Safe for concurrent use; every
// append is fsynced before it returns. A Log opened with an empty dir
// is memory-only: same API, no durability.
type Log struct {
	logf func(format string, args ...any)

	mu       sync.Mutex
	wal      *wal.Log[Record] // its live set is the pending hints, oldest first
	peers    map[string]int   // peer → pending hint count
	maxBytes int64

	adds, delivered, dropped int64
	replayed                 int
}

// Open opens (or creates) the hint log at dir, replays its segments,
// and compacts them into a fresh one. An empty dir yields a memory-only
// log that never touches the filesystem.
func Open(dir string, opts Options) (*Log, error) {
	w, err := wal.Open[Record](dir, wal.Options{
		Version: logVersion,
		Name:    "hints: log",
		FS:      opts.FS,
		Logf:    opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	l := &Log{
		logf:     opts.Logf,
		wal:      w,
		peers:    make(map[string]int),
		maxBytes: opts.MaxBytes,
		replayed: w.Len(),
	}
	w.Live(func(rec Record) bool {
		l.peers[rec.Peer]++
		return true
	})
	return l, nil
}

// Entry names the (peer, key) pair a record queues or clears.
func (r Record) Entry() (string, bool, error) {
	switch {
	case r.Peer == "" || r.Key == "":
		return "", false, fmt.Errorf("record without a peer or key")
	case r.Op != OpAdd && r.Op != OpDone:
		return "", false, fmt.Errorf("invalid record op %q", r.Op)
	}
	return r.Peer + "\x00" + r.Key, r.Op == OpAdd, nil
}

// Add queues one hint: peer is owed key's body. Re-adding an already
// pending pair is a free no-op — delivery is idempotent anyway, but the
// log stays minimal. When MaxBytes is set and exceeded, the oldest
// pending hints are shed (tombstoned and counted as dropped) until the
// new hint fits; the newest hint is always kept.
func (l *Log) Add(peer, key string) error {
	rec := Record{Op: OpAdd, Peer: peer, Key: key, At: time.Now().UnixNano()}
	pair, _, err := rec.Entry()
	if err != nil {
		return fmt.Errorf("hints: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.wal.Get(pair); ok {
		return nil
	}
	l.adds++
	l.peers[peer]++
	err = l.wal.Put(rec)
	// Shed oldest-first past the cap, metered in encoded add-line bytes.
	// Shedding appends tombstones (so a replayed log agrees), but never
	// sheds the hint just added, the newest: losing it to make room for
	// the oldest would invert the queue.
	for l.maxBytes > 0 && l.wal.Bytes() > l.maxBytes && l.wal.Len() > 1 {
		var oldest Record
		l.wal.Live(func(rec Record) bool {
			oldest = rec
			return false
		})
		_ = l.drop(oldest.Peer, oldest.Key, &l.dropped)
		if l.logf != nil {
			l.logf("hints: shed oldest hint (%s ← %.8s) over the %d-byte cap", oldest.Peer, oldest.Key, l.maxBytes)
		}
	}
	return err
}

// drop tombstones (peer, key) if it is pending, counting it in n.
func (l *Log) drop(peer, key string, n *int64) error {
	dropped, err := l.wal.Drop(Record{Op: OpDone, Peer: peer, Key: key})
	if dropped {
		*n++
		if l.peers[peer]--; l.peers[peer] == 0 {
			delete(l.peers, peer)
		}
	}
	return err
}

// Delivered tombstones one hint after a successful push (or after the
// body vanished locally and the hint became undeliverable). Clearing a
// pair that is not pending is a no-op.
func (l *Log) Delivered(peer, key string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.drop(peer, key, &l.delivered)
}

// Pending returns peer's queued keys, oldest first.
func (l *Log) Pending(peer string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	n := l.peers[peer]
	l.wal.Live(func(rec Record) bool {
		if rec.Peer == peer {
			out = append(out, rec.Key)
		}
		return len(out) < n
	})
	return out
}

// PendingFor reports how many hints are queued for peer.
func (l *Log) PendingFor(peer string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peers[peer]
}

// Peers returns the peers with pending hints, sorted.
func (l *Log) Peers() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.peers))
	for peer := range l.peers {
		out = append(out, peer)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Pending:   l.wal.Len(),
		Peers:     len(l.peers),
		Adds:      l.adds,
		Delivered: l.delivered,
		Dropped:   l.dropped,
		Replayed:  l.replayed,
		Truncated: l.wal.Truncated(),
		Degraded:  l.wal.Degraded(),
	}
}

// Degraded reports whether a write error demoted the log.
func (l *Log) Degraded() bool {
	return l.Stats().Degraded
}

// Close closes the active segment handle. Hints already appended stay
// durable; a closed log refuses nothing — further hints are kept in
// memory only (the daemon is exiting anyway).
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wal.Close()
}
