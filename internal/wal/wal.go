// Package wal is the segment log behind coordd's two write-ahead logs:
// the pending-queue journal (internal/queue) and the hinted-handoff log
// (internal/hints). It owns everything about the bytes on disk — the
// line codec, segment files, replay, compaction, and degradation — and
// the live set those bytes describe: the last live record of each key,
// in the order the keys became live. What a record means stays with its
// type, which names through Entry the key its line sets or ends.
//
// Line format, one JSON record per line:
//
//	<version> <sha256-hex over the JSON> <compact JSON record>\n
//
// The checksum binds each line independently, so replay survives a torn
// tail (a crash mid-append) and even a torn middle (a chaos-injected
// short write that later appends merge into): undecodable lines are
// counted and skipped, checksummed lines are trusted. Lines carrying an
// unrecognized version are skipped the same way, never misparsed.
//
// Segments are named %08d.wal and created crash-safely with the result
// store's discipline — temp file, fsync, rename, directory fsync —
// through store.FS, so internal/chaos injects EIO, ENOSPC and torn
// writes here exactly as it does into the store. Each append is one
// Write of the whole line followed by one Sync; a compaction writes one
// line per Write and syncs once.
//
// On open the segments are replayed in order and compacted into one
// fresh segment holding only the live set, so the log never grows across
// restarts; stray temp files from a crash mid-compaction are swept. A
// live compaction runs after every 1024 tombstones, bounding a
// long-lived log by its backlog, not its history.
//
// The log degrades instead of failing its caller: the first write error
// demotes it to memory-only (logged once), and a demoted or closed log
// makes no further filesystem call until it is reopened. A log opened
// with an empty dir is memory-only from the start. The live set keeps
// every Put and Drop whether or not the line reached the disk.
//
// A Log is not safe for concurrent use; callers serialize under their
// own mutex.
package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"coordattack/internal/store"
)

// CompactEvery is the tombstone count that triggers a live compaction.
const CompactEvery = 1024

// Record is a log line's record. Entry names the key the line sets
// (live) or ends (a tombstone); an error marks the record invalid, and
// replay drops it like a torn line.
type Record interface {
	Entry() (key string, live bool, err error)
}

// Options configures Open.
type Options struct {
	// Version prefixes every line, e.g. "coordd-queue/v1".
	Version string
	// Name labels log lines and errors, e.g. "queue: journal".
	Name string
	// FS overrides the filesystem; nil means the real disk.
	FS store.FS
	// Logf receives one line per degradation and dropped record; nil
	// discards them.
	Logf func(format string, args ...any)
}

// entry is one live record, linked into the live set's order.
type entry[R Record] struct {
	rec        R
	size       int64 // encoded line length, newline included
	prev, next *entry[R]
}

// Log is one directory of segments holding records of type R, and the
// live set they fold to.
type Log[R Record] struct {
	dir, version, name string
	fs                 store.FS
	logf               func(format string, args ...any)

	live  map[string]*entry[R]
	order entry[R] // sentinel of the circular list, oldest key first
	bytes int64    // sum of the live records' sizes

	active     store.File // append target; nil once memory-only, demoted, or closed
	seq        uint64     // sequence number of the active segment
	tombstones int        // since the last compaction
	every      int        // tombstones per live compaction; tests lower it

	truncated, compactions int64
}

// Open replays dir's segments into the live set, then compacts them into
// one fresh segment. A failed compaction degrades the log at birth — the
// replay already succeeded — rather than failing the open. An empty dir
// yields a memory-only log that never touches the filesystem.
func Open[R Record](dir string, o Options) (*Log[R], error) {
	l := &Log[R]{
		dir: dir, version: o.Version, name: o.Name,
		fs: o.FS, logf: o.Logf,
		live:  make(map[string]*entry[R]),
		every: CompactEvery,
	}
	l.order.prev, l.order.next = &l.order, &l.order
	if dir == "" {
		return l, nil
	}
	if l.fs == nil {
		l.fs = store.DiskFS()
	}
	if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", l.name, err)
	}
	segs, err := l.replay()
	if err != nil {
		return nil, err
	}
	if l.compact() == nil {
		for _, s := range segs {
			_ = l.fs.Remove(filepath.Join(dir, s))
		}
	}
	return l, nil
}

// replay folds every segment, in sequence order, into the live set,
// sweeping stray temp files, and returns the segment names it consumed.
// A line is metered as its length plus the newline, as Put meters it.
func (l *Log[R]) replay() ([]string, error) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", l.name, err)
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "tmp-") {
			_ = l.fs.Remove(filepath.Join(l.dir, name))
			continue
		}
		if seq, ok := segmentSeq(name); ok {
			segs = append(segs, name)
			l.seq = max(l.seq, seq)
		}
	}
	sort.Strings(segs) // fixed-width names sort in sequence order
	for _, name := range segs {
		data, err := l.fs.ReadFile(filepath.Join(l.dir, name))
		if err != nil {
			continue
		}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			rec, err := decodeLine[R](l.version, line)
			if err == nil {
				_, _, err = l.fold(rec, int64(len(line)+1))
			}
			if err != nil {
				l.truncated++
				if l.logf != nil {
					l.logf("%s %s: dropped undecodable record: %v", l.name, name, err)
				}
			}
		}
	}
	return segs, nil
}

// segmentSeq parses "<seq>.wal" names.
func segmentSeq(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".wal")
	if !ok || len(base) != 8 {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	return n, err == nil
}

func (l *Log[R]) segment(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%08d.wal", seq))
}

// fold applies rec to the live set: a live record becomes its key's
// record, keeping the key's place if it has one, and a tombstone ends
// its key in O(1). It reports whether rec is live and whether the set
// changed.
func (l *Log[R]) fold(rec R, size int64) (live, changed bool, err error) {
	key, live, err := rec.Entry()
	if err != nil {
		return false, false, err
	}
	e := l.live[key]
	switch {
	case live && e == nil:
		e = &entry[R]{prev: l.order.prev, next: &l.order}
		e.prev.next, l.order.prev = e, e
		l.live[key] = e
		fallthrough
	case live:
		l.bytes += size - e.size
		e.rec, e.size = rec, size
	case e != nil:
		delete(l.live, key)
		e.prev.next, e.next.prev = e.next, e.prev
		l.bytes -= e.size
	}
	return live, live || e != nil, nil
}

// Put makes rec, a live record, its key's record — a key already live
// keeps its place in the order — and appends rec's line. A write error
// demotes the log and is returned for logging; callers treat it as
// advisory, as the live set already holds rec.
func (l *Log[R]) Put(rec R) error {
	_, err := l.append(rec)
	return err
}

// Drop ends the live record of tomb's key and appends tomb, a tombstone,
// reporting whether the key was live; a key that is not live writes
// nothing. Drops count toward the next live compaction.
func (l *Log[R]) Drop(tomb R) (bool, error) { return l.append(tomb) }

// append folds rec into the live set and, when that changed it, writes
// rec's line to the active segment: one Write of the whole line, then
// one Sync. An encoding or write error demotes the log.
func (l *Log[R]) append(rec R) (bool, error) {
	line, err := encodeLine(l.version, rec)
	live, changed, invalid := l.fold(rec, int64(len(line)))
	switch {
	case invalid != nil:
		return false, fmt.Errorf("%s: %w", l.name, invalid)
	case !changed || l.active == nil:
		return changed, nil
	}
	if err == nil {
		_, err = l.active.Write(line)
	}
	if err == nil {
		err = l.active.Sync()
	}
	if err != nil {
		return true, l.demote(err)
	}
	if live {
		return true, nil
	}
	if l.tombstones++; l.tombstones >= l.every {
		old := l.segment(l.seq)
		if l.compact() == nil {
			_ = l.fs.Remove(old)
		}
	}
	return true, nil
}

// Get returns key's live record.
func (l *Log[R]) Get(key string) (R, bool) {
	if e := l.live[key]; e != nil {
		return e.rec, true
	}
	var zero R
	return zero, false
}

// Live calls yield with each live record, oldest key first, until yield
// returns false. yield must not modify the log.
func (l *Log[R]) Live(yield func(R) bool) {
	for e := l.order.next; e != &l.order; e = e.next {
		if !yield(e.rec) {
			return
		}
	}
}

// Len is the number of live records.
func (l *Log[R]) Len() int { return len(l.live) }

// Bytes is the live set's encoded size: the sum of its records' line
// lengths, newlines included.
func (l *Log[R]) Bytes() int64 { return l.bytes }

// compact writes the live set into a fresh segment — temp file, fsync,
// rename, dir fsync — and makes it the append target. The open handle
// follows the rename, so appends land in the new segment. The caller
// removes the superseded segments on success.
func (l *Log[R]) compact() error {
	tmp, err := l.fs.CreateTemp(l.dir, "tmp-*")
	if err != nil {
		return l.demote(err)
	}
	next := l.seq + 1
	if err := l.writeLive(tmp); err == nil {
		err = l.fs.Rename(tmp.Name(), l.segment(next))
	}
	if err != nil {
		tmp.Close()
		_ = l.fs.Remove(tmp.Name())
		return l.demote(err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		tmp.Close()
		return l.demote(err)
	}
	if l.active != nil {
		l.active.Close()
	}
	l.active, l.seq, l.tombstones = tmp, next, 0
	l.compactions++
	return nil
}

func (l *Log[R]) writeLive(f store.File) error {
	for e := l.order.next; e != &l.order; e = e.next {
		line, err := encodeLine(l.version, e.rec)
		if err != nil {
			return err
		}
		if _, err := f.Write(line); err != nil {
			return err
		}
	}
	return f.Sync()
}

// demote flips the log to memory-only and logs why. It runs at most
// once: without an active segment the log never writes again.
func (l *Log[R]) demote(cause error) error {
	l.Close()
	if l.logf != nil {
		l.logf("%s degraded to memory-only: %v (appends lose crash durability until restart)", l.name, cause)
	}
	return cause
}

// Close releases the active segment. Records already appended stay
// durable; a closed log, like a demoted one, keeps its live set in
// memory and reports itself degraded.
func (l *Log[R]) Close() {
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
}

// Degraded reports whether a write error (or Close) demoted the log: it
// has a directory but no segment to append to.
func (l *Log[R]) Degraded() bool { return l.dir != "" && l.active == nil }

// Truncated counts the lines replay dropped as undecodable or invalid.
func (l *Log[R]) Truncated() int64 { return l.truncated }

// Compactions counts the segment rewrites, at open and live.
func (l *Log[R]) Compactions() int64 { return l.compactions }

// encodeLine renders one record line with its binding checksum.
func encodeLine(version string, rec any) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	line := make([]byte, 0, len(version)+1+64+1+len(body)+1)
	line = append(line, version...)
	line = append(line, ' ')
	line = append(line, hex.EncodeToString(sum[:])...)
	line = append(line, ' ')
	line = append(line, body...)
	return append(line, '\n'), nil
}

// decodeLine parses and verifies one record line, without its newline.
func decodeLine[R any](version string, line []byte) (R, error) {
	var rec R
	rest, ok := bytes.CutPrefix(line, []byte(version+" "))
	if !ok {
		return rec, errors.New("bad version prefix")
	}
	sum, body, ok := bytes.Cut(rest, []byte{' '})
	if !ok || len(sum) != 64 {
		return rec, errors.New("malformed checksum field")
	}
	got := sha256.Sum256(body)
	if hex.EncodeToString(got[:]) != string(sum) {
		return rec, errors.New("checksum mismatch")
	}
	err := json.Unmarshal(body, &rec)
	return rec, err
}
