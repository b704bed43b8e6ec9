package queue

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"coordattack/internal/store"
	"coordattack/internal/wal"
)

// The pending-queue journal is a write-ahead log of admission: one
// record is appended (and fsynced) per accepted job before the 202
// leaves the daemon, and a tombstone is appended when the job settles.
// On open the log is replayed — accepts minus settles is the pending
// set a restarted daemon re-admits — and compacted down to the still-
// pending accepts. The bytes on disk, replay, compaction and the
// degrade-to-memory discipline belong to internal/wal; this file holds
// only what the records mean.
//
// Like the store, the journal degrades instead of failing its caller: a
// write-path error demotes it to memory-only (logged once, visible in
// /healthz), after which accepted jobs simply lose crash durability
// until restart. Admission never fails because the log is sick.

// journalVersion prefixes every record line. Unrecognized versions are
// skipped on replay (counted as lost), never misparsed.
const journalVersion = "coordd-queue/v1"

// Record ops.
const (
	OpAccept = "accept"
	OpSettle = "settle"
	// OpIntent marks a pending job as granted to a thief but not yet
	// committed: the first phase of the two-phase steal handoff. The job
	// stays pending (an intent is an annotated accept, not a tombstone),
	// so a crash on both sides before the thief commits still replays
	// the job here — nothing is stranded.
	OpIntent = "intent"
)

// Record is one journal entry. Accept records carry the canonical spec
// and its scheduling envelope; settle records only the key; intent
// records are the accept record re-stamped with the thief's address.
type Record struct {
	Op       string          `json:"op"`
	Key      string          `json:"key"`
	Flow     string          `json:"flow,omitempty"`
	Class    string          `json:"class,omitempty"`
	Priority int             `json:"priority,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	// Thief is the stealing peer's advertise address on intent records.
	Thief string `json:"thief,omitempty"`
	// At is the accept wall-clock in unix nanoseconds, preserved across
	// replay so queue-age metrics survive a restart.
	At int64 `json:"at,omitempty"`
}

// JournalOptions tunes OpenJournal.
type JournalOptions struct {
	// FS overrides the filesystem; nil means the real disk. Chaos
	// harnesses inject faults here.
	FS store.FS
	// Logf receives one line per degradation and truncation event; nil
	// discards them.
	Logf func(format string, args ...any)
}

// JournalStats is a point-in-time snapshot for /metrics and /healthz.
type JournalStats struct {
	Pending     int   `json:"pending"`
	Accepts     int64 `json:"accepts"`
	Settles     int64 `json:"settles"`
	Replayed    int   `json:"replayed"`
	Truncated   int64 `json:"truncated"`
	Compactions int64 `json:"compactions"`
	Degraded    bool  `json:"degraded"`
}

// Journal is the durable pending queue. Safe for concurrent use; every
// append is fsynced before it returns.
type Journal struct {
	mu      sync.Mutex
	wal     *wal.Log[Record]
	pending map[string]*Record
	order   []string // pending keys in accept order
	replay  []Record // snapshot of pending taken at open

	accepts, settles int64
}

// OpenJournal opens (or creates) the journal at dir, replays its
// segments, and compacts them into a fresh one. The pending set
// recovered from disk is available through Pending until consumed.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("queue: empty journal directory")
	}
	j := &Journal{pending: make(map[string]*Record)}
	w, err := wal.Open(dir, wal.Options[Record]{
		Version:  journalVersion,
		Name:     "queue: journal",
		FS:       opts.FS,
		Logf:     opts.Logf,
		Apply:    j.apply,
		Snapshot: j.snapshot,
	})
	if err != nil {
		return nil, err
	}
	j.wal, j.replay = w, j.snapshot()
	return j, nil
}

// apply replays one record into the pending set. An intent is still
// pending — only the commit-driven settle tombstone clears it — and
// replay surfaces the recorded thief so the service can poll it before
// re-running locally.
func (j *Journal) apply(rec Record) error {
	switch {
	case rec.Key == "":
		return fmt.Errorf("record without a key")
	case rec.Op == OpAccept || rec.Op == OpIntent:
		j.put(rec)
	case rec.Op == OpSettle:
		j.drop(rec.Key)
	default:
		return fmt.Errorf("invalid record op %q", rec.Op)
	}
	return nil
}

// snapshot lists the pending records in admission order: what a
// compaction rewrites.
func (j *Journal) snapshot() []Record {
	out := make([]Record, len(j.order))
	for i, key := range j.order {
		out[i] = *j.pending[key]
	}
	return out
}

// put makes rec the pending record for its key, keeping the key's
// admission position if it already has one.
func (j *Journal) put(rec Record) {
	if _, ok := j.pending[rec.Key]; !ok {
		j.order = append(j.order, rec.Key)
	}
	j.pending[rec.Key] = &rec
}

// drop removes key from the pending set, reporting whether it was there.
func (j *Journal) drop(key string) bool {
	if _, ok := j.pending[key]; !ok {
		return false
	}
	delete(j.pending, key)
	for i, k := range j.order {
		if k == key {
			j.order = append(j.order[:i], j.order[i+1:]...)
			break
		}
	}
	return true
}

// Pending returns the accept records recovered at open, in admission
// order — what the service re-admits on restart.
func (j *Journal) Pending() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, len(j.replay))
	copy(out, j.replay)
	return out
}

// Accept appends (and fsyncs) one accept record. A write error demotes
// the journal to memory-only and is returned for logging; callers treat
// it as advisory — admission proceeds, durability is what was lost.
func (j *Journal) Accept(rec Record) error {
	rec.Op = OpAccept
	if rec.At == 0 {
		rec.At = time.Now().UnixNano()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.accepts++
	j.put(rec)
	return j.wal.Append(rec)
}

// Intent re-stamps key's pending record with the thief's address and
// appends (and fsyncs) it — phase one of the two-phase steal handoff.
// The job stays pending: a replay after a crash re-admits it (annotated
// with the thief), and only the commit-driven Settle clears it. A key
// with no pending accept is a no-op.
func (j *Journal) Intent(key, thief string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.pending[key]
	if !ok {
		return nil
	}
	r := *rec
	r.Op, r.Thief = OpIntent, thief
	j.put(r)
	return j.wal.Append(r)
}

// Settle appends a tombstone for key. Settling a key with no pending
// accept (a replayed duplicate, a never-journaled job) is a no-op.
func (j *Journal) Settle(key string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.drop(key) {
		return nil
	}
	j.settles++
	return j.wal.Tombstone(Record{Op: OpSettle, Key: key})
}

// Degraded reports whether a write error demoted the journal.
func (j *Journal) Degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wal.Degraded()
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Pending:     len(j.pending),
		Accepts:     j.accepts,
		Settles:     j.settles,
		Replayed:    len(j.replay),
		Truncated:   j.wal.Truncated(),
		Compactions: j.wal.Compactions(),
		Degraded:    j.wal.Degraded(),
	}
}

// Close closes the active segment handle. Records already appended stay
// durable; a closed journal refuses nothing — further accepts and
// settles are kept in memory only (the daemon is exiting anyway).
func (j *Journal) Close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.wal.Close()
}
