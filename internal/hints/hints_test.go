package hints

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"coordattack/internal/store"
	"coordattack/internal/wal"
)

const (
	peerA = "http://127.0.0.1:9001"
	peerB = "http://127.0.0.1:9002"
)

func key(i int) string {
	return fmt.Sprintf("%064x", i)
}

// addLineSize is the encoded add-line length of one hint, the unit the
// MaxBytes cap meters, as a memory-only wal.Log meters it.
func addLineSize(peer, key string, at int64) int64 {
	w, _ := wal.Open[Record]("", wal.Options{Version: logVersion})
	_ = w.Put(Record{Op: OpAdd, Peer: peer, Key: key, At: at})
	return w.Bytes()
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	t.Cleanup(l.Close)
	return l
}

func TestHintsAddDeliverPending(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	if err := l.Add(peerA, key(1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := l.Add(peerA, key(2)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := l.Add(peerB, key(1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	// Re-adding a pending pair is a dedup no-op.
	if err := l.Add(peerA, key(1)); err != nil {
		t.Fatalf("re-Add: %v", err)
	}
	if got := l.Pending(peerA); !reflect.DeepEqual(got, []string{key(1), key(2)}) {
		t.Fatalf("Pending(A) = %v", got)
	}
	if got := l.PendingFor(peerB); got != 1 {
		t.Fatalf("PendingFor(B) = %d", got)
	}
	if got := l.Peers(); !reflect.DeepEqual(got, []string{peerA, peerB}) {
		t.Fatalf("Peers() = %v", got)
	}
	st := l.Stats()
	if st.Adds != 3 || st.Pending != 3 || st.Peers != 2 {
		t.Fatalf("stats after adds: %+v", st)
	}

	if err := l.Delivered(peerA, key(1)); err != nil {
		t.Fatalf("Delivered: %v", err)
	}
	// Clearing an unknown pair is a no-op.
	if err := l.Delivered(peerA, "ffff"); err != nil {
		t.Fatalf("Delivered unknown: %v", err)
	}
	if got := l.Pending(peerA); !reflect.DeepEqual(got, []string{key(2)}) {
		t.Fatalf("Pending(A) after delivery = %v", got)
	}
	st = l.Stats()
	if st.Delivered != 1 || st.Pending != 2 {
		t.Fatalf("stats after delivery: %+v", st)
	}
}

func TestHintsReopenReplays(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Add(peerA, key(i)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := l.Delivered(peerA, key(2)); err != nil {
		t.Fatalf("Delivered: %v", err)
	}
	l.Close() // simulated crash: no compaction beyond what already ran

	re := mustOpen(t, dir, Options{})
	want := []string{key(0), key(1), key(3), key(4)}
	if got := re.Pending(peerA); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed Pending(A) = %v, want %v", got, want)
	}
	if st := re.Stats(); st.Replayed != 4 {
		t.Fatalf("Replayed = %d, want 4", st.Replayed)
	}
	// Compact-on-open leaves exactly one segment and no temp files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs int
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Fatalf("stray temp file %s after open", e.Name())
		}
		if strings.HasSuffix(e.Name(), ".wal") {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("segments after compact-on-open = %d, want 1", segs)
	}
}

func TestHintsTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.Add(peerA, key(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(peerA, key(2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want one", segs, err)
	}
	seg := segs[0]

	// Chop the last line mid-record: the crash-torn tail.
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{})
	if got := re.Pending(peerA); !reflect.DeepEqual(got, []string{key(1)}) {
		t.Fatalf("Pending after torn tail = %v", got)
	}
	if st := re.Stats(); st.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", st.Truncated)
	}
}

func TestHintsMaxBytesShedsOldest(t *testing.T) {
	// Budget for exactly three hints; the fourth Add sheds the oldest.
	// The size sample uses a realistic timestamp so its encoded length
	// matches what Add writes.
	per := addLineSize(peerA, key(0), time.Now().UnixNano())
	l := mustOpen(t, t.TempDir(), Options{MaxBytes: 3 * per})
	for i := 0; i < 4; i++ {
		if err := l.Add(peerA, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Pending(peerA); !reflect.DeepEqual(got, []string{key(1), key(2), key(3)}) {
		t.Fatalf("Pending after shed = %v", got)
	}
	st := l.Stats()
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	// A cap tighter than one hint still keeps the newest.
	tiny := mustOpen(t, t.TempDir(), Options{MaxBytes: 1})
	if err := tiny.Add(peerA, key(9)); err != nil {
		t.Fatal(err)
	}
	if got := tiny.PendingFor(peerA); got != 1 {
		t.Fatalf("tiny cap kept %d hints, want the newest", got)
	}
}

func TestHintsShedSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	per := addLineSize(peerA, key(0), time.Now().UnixNano())
	l := mustOpen(t, dir, Options{MaxBytes: 2 * per})
	for i := 0; i < 3; i++ {
		if err := l.Add(peerA, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// The shed tombstone was journaled: a replay agrees with the
	// in-memory state, it does not resurrect the dropped hint.
	re := mustOpen(t, dir, Options{})
	if got := re.Pending(peerA); !reflect.DeepEqual(got, []string{key(1), key(2)}) {
		t.Fatalf("replayed Pending after shed = %v", got)
	}
}

func TestHintsMemoryOnly(t *testing.T) {
	l := mustOpen(t, "", Options{})
	if err := l.Add(peerA, key(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Delivered(peerA, key(1)); err != nil {
		t.Fatal(err)
	}
	if l.Degraded() {
		t.Fatal("memory-only log reported degraded")
	}
	if st := l.Stats(); st.Adds != 1 || st.Delivered != 1 || st.Pending != 0 {
		t.Fatalf("memory-only stats: %+v", st)
	}
}

func TestHintsCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	// Two live compactions' worth of delivered hints, plus a few more.
	n := 2*wal.CompactEvery + 8
	for i := 0; i < n; i++ {
		if err := l.Add(peerA, key(i)); err != nil {
			t.Fatal(err)
		}
		if err := l.Delivered(peerA, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) != 1 {
		t.Fatalf("segments after live compaction = %v, want 1", segs)
	}
	data, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	// The surviving segment holds only post-compaction appends, far
	// fewer than the 2n records written in total.
	if lines := strings.Count(string(data), "\n"); lines >= 2*n {
		t.Fatalf("compaction never bounded the log: %d lines", lines)
	}
}

// flakyFS delegates to the real disk but fails every File.Sync after an
// armed trip point, driving the degrade path. Defined locally — the
// chaos package imports hints for its soak, so hints tests cannot
// import chaos back.
type flakyFS struct {
	store.FS
	fail bool
}

type flakyFile struct {
	store.File
	fs *flakyFS
}

func (f *flakyFS) CreateTemp(dir, pattern string) (store.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

func (f *flakyFile) Sync() error {
	if f.fs.fail {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

func TestHintsDegradeOnWriteError(t *testing.T) {
	fs := &flakyFS{FS: store.DiskFS()}
	var logged []string
	l := mustOpen(t, t.TempDir(), Options{
		FS:   fs,
		Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	})
	if err := l.Add(peerA, key(1)); err != nil {
		t.Fatalf("healthy Add: %v", err)
	}
	fs.fail = true
	if err := l.Add(peerA, key(2)); err == nil {
		t.Fatal("Add over failing fsync returned nil error")
	}
	if !l.Degraded() {
		t.Fatal("write error did not demote the log")
	}
	// Demoted logs keep working in memory and do not re-log.
	n := len(logged)
	if err := l.Add(peerA, key(3)); err != nil {
		t.Fatalf("memory-only Add after demotion: %v", err)
	}
	if len(logged) != n {
		t.Fatalf("demotion logged more than once: %v", logged)
	}
	if got := l.PendingFor(peerA); got != 3 {
		t.Fatalf("pending after demotion = %d, want 3", got)
	}
	if n == 0 || !strings.Contains(logged[0], "degraded") {
		t.Fatalf("missing degradation log line: %v", logged)
	}
}
