// Package wal is the segment log behind coordd's two write-ahead logs:
// the pending-queue journal (internal/queue) and the hinted-handoff log
// (internal/hints). It owns everything about the bytes on disk — the
// line codec, segment files, replay, compaction, and degradation — and
// knows nothing about what a record means: the caller supplies an apply
// callback that folds one replayed record into its state, and a
// snapshot callback that lists the live records a compaction rewrites.
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
// fresh segment holding only the snapshot, so the log never grows across
// restarts; stray temp files from a crash mid-compaction are swept. A
// live compaction runs after every 1024 tombstones, bounding a
// long-lived log by its backlog, not its history.
//
// The log degrades instead of failing its caller: the first write error
// demotes it to memory-only (logged once), and a demoted or closed log
// makes no further filesystem call until it is reopened. A log opened
// with an empty dir is memory-only from the start.
//
// A Log is not safe for concurrent use; callers serialize under their
// own mutex, which also guards the state the callbacks read.
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

// Options configures Open.
type Options[R any] struct {
	// Version prefixes every line, e.g. "coordd-queue/v1".
	Version string
	// Name labels log lines and errors, e.g. "queue: journal".
	Name string
	// FS overrides the filesystem; nil means the real disk.
	FS store.FS
	// Logf receives one line per degradation and dropped record; nil
	// discards them.
	Logf func(format string, args ...any)
	// Apply folds one replayed record into the caller's state; an error
	// marks the record invalid, and it is dropped like a torn line.
	Apply func(R) error
	// Snapshot returns the live records, in order, that a compaction
	// rewrites into a fresh segment.
	Snapshot func() []R
}

// Log is one directory of segments holding records of type R.
type Log[R any] struct {
	dir, version, name string
	fs                 store.FS
	logf               func(format string, args ...any)
	snapshot           func() []R

	active     store.File // append target; nil once memory-only, demoted, or closed
	seq        uint64     // sequence number of the active segment
	tombstones int        // since the last compaction
	every      int        // tombstones per live compaction; tests lower it
	degraded   bool

	truncated, compactions int64
}

// Open replays dir's segments through o.Apply, then compacts them into
// one fresh segment. A failed compaction degrades the log at birth —
// the replay already succeeded — rather than failing the open. An empty
// dir yields a memory-only log that never touches the filesystem.
func Open[R any](dir string, o Options[R]) (*Log[R], error) {
	l := &Log[R]{
		dir: dir, version: o.Version, name: o.Name,
		fs: o.FS, logf: o.Logf, snapshot: o.Snapshot,
		every: CompactEvery,
	}
	if dir == "" {
		return l, nil
	}
	if l.fs == nil {
		l.fs = store.DiskFS()
	}
	if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", l.name, err)
	}
	segs, err := l.replay(o.Apply)
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

// replay applies every segment in sequence order, sweeping stray temp
// files, and returns the segment names it consumed.
func (l *Log[R]) replay(apply func(R) error) ([]string, error) {
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
				err = apply(rec)
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

// Append writes one record line to the active segment and fsyncs it. A
// write error demotes the log and is returned for logging; callers treat
// it as advisory — their in-memory state already holds the record.
func (l *Log[R]) Append(rec R) error {
	if l.active == nil {
		return nil
	}
	line, err := encodeLine(l.version, rec)
	if err != nil {
		return l.demote(err)
	}
	if _, err := l.active.Write(line); err != nil {
		return l.demote(err)
	}
	if err := l.active.Sync(); err != nil {
		return l.demote(err)
	}
	return nil
}

// Tombstone appends rec like Append and counts it toward the next live
// compaction, which runs once enough tombstones have accumulated.
func (l *Log[R]) Tombstone(rec R) error {
	if err := l.Append(rec); err != nil || l.active == nil {
		return err
	}
	if l.tombstones++; l.tombstones >= l.every {
		old := l.segment(l.seq)
		if l.compact() == nil {
			_ = l.fs.Remove(old)
		}
	}
	return nil
}

// compact writes the snapshot into a fresh segment — temp file, fsync,
// rename, dir fsync — and makes it the append target. The open handle
// follows the rename, so appends land in the new segment. The caller
// removes the superseded segments on success.
func (l *Log[R]) compact() error {
	tmp, err := l.fs.CreateTemp(l.dir, "tmp-*")
	if err != nil {
		return l.demote(err)
	}
	next := l.seq + 1
	if err := l.writeSnapshot(tmp); err == nil {
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

func (l *Log[R]) writeSnapshot(f store.File) error {
	for _, rec := range l.snapshot() {
		line, err := encodeLine(l.version, rec)
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
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.degraded = true
	if l.logf != nil {
		l.logf("%s degraded to memory-only: %v (appends lose crash durability until restart)", l.name, cause)
	}
	return cause
}

// Close releases the active segment. Records already appended stay
// durable; a closed log, like a demoted one, absorbs further appends in
// memory and reports itself degraded.
func (l *Log[R]) Close() {
	if l.active != nil {
		l.active.Close()
		l.active = nil
		l.degraded = true
	}
}

// Degraded reports whether a write error (or Close) demoted the log.
func (l *Log[R]) Degraded() bool { return l.degraded }

// Truncated counts the lines replay dropped as undecodable or invalid.
func (l *Log[R]) Truncated() int64 { return l.truncated }

// Compactions counts the segment rewrites, at open and live.
func (l *Log[R]) Compactions() int64 { return l.compactions }

// LineSize is the encoded length of rec's line, newline included.
func LineSize(version string, rec any) int64 {
	line, _ := encodeLine(version, rec)
	return int64(len(line))
}

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
