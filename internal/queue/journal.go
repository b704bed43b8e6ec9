package queue

import (
	"encoding/json"
	"fmt"
	"slices"
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
// pending accepts. The bytes on disk, the pending set itself (the log's
// live set), replay, compaction and the degrade-to-memory discipline
// belong to internal/wal; this file holds only what the records mean.
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
	// OpIntent marks a pending job as granted to a thief whose result
	// has not landed here yet. The job stays pending (an intent is an
	// annotated accept, not a tombstone) until it settles on this node
	// or a reclaim re-accepts it, so a crash on both sides replays the
	// job here whether or not the thief kept it — nothing is stranded.
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
	mu     sync.Mutex
	wal    *wal.Log[Record] // its live set is the pending set, in admission order
	replay []Record         // the pending set recovered at open; read-only

	accepts, settles int64
}

// OpenJournal opens (or creates) the journal at dir, replays its
// segments, and compacts them into a fresh one. The pending set
// recovered from disk is available through Pending until consumed.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("queue: empty journal directory")
	}
	w, err := wal.Open[Record](dir, wal.Options{
		Version: journalVersion,
		Name:    "queue: journal",
		FS:      opts.FS,
		Logf:    opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	j := &Journal{wal: w, replay: make([]Record, 0, w.Len())}
	w.Live(func(rec Record) bool {
		j.replay = append(j.replay, rec)
		return true
	})
	return j, nil
}

// Entry names the key a record makes pending or settles. An intent is
// still pending — only a settle tombstone clears it, written once the
// stolen job settles here — and replay surfaces the recorded thief so
// the service can poll it before re-running locally.
func (r Record) Entry() (string, bool, error) {
	switch {
	case r.Key == "":
		return "", false, fmt.Errorf("record without a key")
	case r.Op != OpAccept && r.Op != OpIntent && r.Op != OpSettle:
		return "", false, fmt.Errorf("invalid record op %q", r.Op)
	}
	return r.Key, r.Op != OpSettle, nil
}

// Pending returns the accept records recovered at open, in admission
// order — what the service re-admits on restart.
func (j *Journal) Pending() []Record {
	return slices.Clone(j.replay)
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
	return j.wal.Put(rec)
}

// Intent re-stamps key's pending record with the thief's address and
// appends (and fsyncs) it before a steal grant leaves. The job stays
// pending: a replay after a crash re-admits it (annotated with the
// thief), and only Settle, once the job settles here, or a fresh Accept
// on reclaim replaces it. A key with no pending accept is a no-op.
func (j *Journal) Intent(key, thief string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.wal.Get(key)
	if !ok {
		return nil
	}
	rec.Op, rec.Thief = OpIntent, thief
	return j.wal.Put(rec)
}

// Settle appends a tombstone for key. Settling a key with no pending
// accept (a replayed duplicate, a never-journaled job) is a no-op.
func (j *Journal) Settle(key string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	settled, err := j.wal.Drop(Record{Op: OpSettle, Key: key})
	if settled {
		j.settles++
	}
	return err
}

// Degraded reports whether a write error demoted the journal.
func (j *Journal) Degraded() bool {
	return j.Stats().Degraded
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Pending:     j.wal.Len(),
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
