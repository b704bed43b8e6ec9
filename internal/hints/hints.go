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
// degrade-to-memory-only on any write error. This file holds only what
// the records mean: per-peer dedup and oldest-first shedding.
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

// hint is one pending entry with its byte-accounting weight.
type hint struct {
	peer, key string
	at        int64
	size      int64 // encoded add-line length, the MaxBytes unit
}

// Log is the hinted-handoff queue. Safe for concurrent use; every
// append is fsynced before it returns. A Log opened with an empty dir
// is memory-only: same API, no durability.
type Log struct {
	logf func(format string, args ...any)

	mu       sync.Mutex
	wal      *wal.Log[Record]
	pending  map[string]map[string]*hint // peer → key → hint
	order    []*hint                     // global queue order, oldest first
	bytes    int64                       // encoded size of the pending set
	maxBytes int64

	adds, delivered, dropped int64
	replayed                 int
}

// Open opens (or creates) the hint log at dir, replays its segments,
// and compacts them into a fresh one. An empty dir yields a memory-only
// log that never touches the filesystem.
func Open(dir string, opts Options) (*Log, error) {
	l := &Log{
		logf:     opts.Logf,
		pending:  make(map[string]map[string]*hint),
		maxBytes: opts.MaxBytes,
	}
	w, err := wal.Open(dir, wal.Options[Record]{
		Version:  logVersion,
		Name:     "hints: log",
		FS:       opts.FS,
		Logf:     opts.Logf,
		Apply:    l.apply,
		Snapshot: l.snapshot,
	})
	if err != nil {
		return nil, err
	}
	l.wal, l.replayed = w, len(l.order)
	return l, nil
}

// apply replays one record into the pending set.
func (l *Log) apply(rec Record) error {
	switch {
	case rec.Peer == "" || rec.Key == "":
		return fmt.Errorf("record without a peer or key")
	case rec.Op == OpAdd:
		l.insertLocked(rec.Peer, rec.Key, rec.At)
	case rec.Op == OpDone:
		l.removeLocked(rec.Peer, rec.Key)
	default:
		return fmt.Errorf("invalid record op %q", rec.Op)
	}
	return nil
}

// snapshot lists the pending hints, oldest first, as the add records a
// compaction rewrites.
func (l *Log) snapshot() []Record {
	out := make([]Record, len(l.order))
	for i, h := range l.order {
		out[i] = Record{Op: OpAdd, Peer: h.peer, Key: h.key, At: h.at}
	}
	return out
}

// insertLocked adds (peer, key) to the pending set if absent. Returns
// the hint and whether it was freshly inserted.
func (l *Log) insertLocked(peer, key string, at int64) (*hint, bool) {
	byKey := l.pending[peer]
	if byKey == nil {
		byKey = make(map[string]*hint)
		l.pending[peer] = byKey
	}
	if h, ok := byKey[key]; ok {
		return h, false
	}
	h := &hint{peer: peer, key: key, at: at, size: addLineSize(peer, key, at)}
	byKey[key] = h
	l.order = append(l.order, h)
	l.bytes += h.size
	return h, true
}

// removeLocked drops (peer, key) from the pending set if present.
func (l *Log) removeLocked(peer, key string) bool {
	byKey := l.pending[peer]
	h, ok := byKey[key]
	if !ok {
		return false
	}
	delete(byKey, key)
	if len(byKey) == 0 {
		delete(l.pending, peer)
	}
	for i, o := range l.order {
		if o == h {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	l.bytes -= h.size
	return true
}

// Add queues one hint: peer is owed key's body. Re-adding an already
// pending pair is a free no-op — delivery is idempotent anyway, but the
// log stays minimal. When MaxBytes is set and exceeded, the oldest
// pending hints are shed (tombstoned and counted as dropped) until the
// new hint fits; the newest hint is always kept.
func (l *Log) Add(peer, key string) error {
	now := time.Now().UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	h, fresh := l.insertLocked(peer, key, now)
	if !fresh {
		return nil
	}
	l.adds++
	err := l.wal.Append(Record{Op: OpAdd, Peer: peer, Key: key, At: h.at})
	// Shed oldest-first past the cap. Shedding appends tombstones (so a
	// replayed log agrees), but never sheds the hint just added: losing
	// the newest to make room for the oldest would invert the queue.
	for l.maxBytes > 0 && l.bytes > l.maxBytes && len(l.order) > 1 {
		oldest := l.order[0]
		if oldest == h {
			break
		}
		l.removeLocked(oldest.peer, oldest.key)
		l.dropped++
		if l.logf != nil {
			l.logf("hints: shed oldest hint (%s ← %.8s) over the %d-byte cap", oldest.peer, oldest.key, l.maxBytes)
		}
		_ = l.wal.Tombstone(Record{Op: OpDone, Peer: oldest.peer, Key: oldest.key})
	}
	return err
}

// Delivered tombstones one hint after a successful push (or after the
// body vanished locally and the hint became undeliverable). Clearing a
// pair that is not pending is a no-op.
func (l *Log) Delivered(peer, key string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.removeLocked(peer, key) {
		return nil
	}
	l.delivered++
	return l.wal.Tombstone(Record{Op: OpDone, Peer: peer, Key: key})
}

// Pending returns peer's queued keys, oldest first.
func (l *Log) Pending(peer string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	byKey := l.pending[peer]
	if len(byKey) == 0 {
		return nil
	}
	out := make([]string, 0, len(byKey))
	for _, h := range l.order {
		if h.peer == peer {
			out = append(out, h.key)
		}
	}
	return out
}

// PendingFor reports how many hints are queued for peer.
func (l *Log) PendingFor(peer string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending[peer])
}

// Peers returns the peers with pending hints, sorted.
func (l *Log) Peers() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.pending))
	for peer := range l.pending {
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
		Pending:   len(l.order),
		Peers:     len(l.pending),
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
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wal.Degraded()
}

// Close closes the active segment handle. Hints already appended stay
// durable; a closed log refuses nothing — further hints are kept in
// memory only (the daemon is exiting anyway).
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wal.Close()
}

// addLineSize is the encoded add-line length of one hint — the unit the
// MaxBytes cap meters.
func addLineSize(peer, key string, at int64) int64 {
	return wal.LineSize(logVersion, Record{Op: OpAdd, Peer: peer, Key: key, At: at})
}
