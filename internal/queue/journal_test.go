package queue

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"coordattack/internal/store"
	"coordattack/internal/wal"
)

// failFS wraps the disk FS with a manual outage switch, a minimal stand-
// in for internal/chaos (which cannot be imported here: chaos → service
// → queue). The full chaos-driven journal fault tests live in
// internal/chaos.
type failFS struct {
	store.FS
	broken atomic.Bool
}

func (f *failFS) err() error {
	if f.broken.Load() {
		return fmt.Errorf("failFS: injected write error")
	}
	return nil
}

func (f *failFS) CreateTemp(dir, pattern string) (store.File, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	inner, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &failFile{File: inner, fs: f}, nil
}

func (f *failFS) Rename(oldpath, newpath string) error {
	if err := f.err(); err != nil {
		return err
	}
	return f.FS.Rename(oldpath, newpath)
}

type failFile struct {
	store.File
	fs *failFS
}

func (f *failFile) Write(p []byte) (int, error) {
	if err := f.fs.err(); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *failFile) Sync() error {
	if err := f.fs.err(); err != nil {
		return err
	}
	return f.File.Sync()
}

func openJournal(t *testing.T, dir string, opts JournalOptions) *Journal {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	j, err := OpenJournal(dir, opts)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j
}

func acceptRec(key string) Record {
	return Record{
		Key:   key,
		Flow:  "interactive",
		Class: string(ClassInteractive),
		Spec:  json.RawMessage(fmt.Sprintf(`{"protocol":"s:0.5","seed":%q}`, key)),
	}
}

func pendingKeys(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key
	}
	return out
}

// TestJournalReplayAfterReopen: accepts minus settles is exactly the
// pending set a reopened journal reports, in admission order.
func TestJournalReplayAfterReopen(t *testing.T) {
	dir := t.TempDir()
	j1 := openJournal(t, dir, JournalOptions{})
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := j1.Accept(acceptRec(k)); err != nil {
			t.Fatalf("Accept(%s): %v", k, err)
		}
	}
	if err := j1.Settle("b"); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	j1.Close()

	j2 := openJournal(t, dir, JournalOptions{})
	defer j2.Close()
	got := pendingKeys(j2.Pending())
	want := []string{"a", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("pending after reopen = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pending order = %v, want %v", got, want)
		}
	}
	st := j2.Stats()
	if st.Replayed != 3 || st.Pending != 3 || st.Degraded {
		t.Fatalf("stats after reopen = %+v", st)
	}
	// The replayed records keep their scheduling envelope.
	if j2.Pending()[0].Flow != "interactive" || len(j2.Pending()[0].Spec) == 0 {
		t.Fatalf("replayed record lost its envelope: %+v", j2.Pending()[0])
	}
}

// TestJournalCompactOnOpen: reopening rewrites the log into one fresh
// segment and removes the old ones and stray temp files.
func TestJournalCompactOnOpen(t *testing.T) {
	dir := t.TempDir()
	j1 := openJournal(t, dir, JournalOptions{})
	for i := 0; i < 5; i++ {
		if err := j1.Accept(acceptRec(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := j1.Settle(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close()
	// A crash mid-compaction leaves a temp file behind.
	if err := os.WriteFile(filepath.Join(dir, "tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, dir, JournalOptions{})
	j2.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Fatalf("stray temp file %s survived open", e.Name())
		}
		segs = append(segs, e.Name())
	}
	if len(segs) != 1 {
		t.Fatalf("segments after compact-on-open = %v, want exactly one", segs)
	}
	// The compacted segment holds only the single pending accept.
	data, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 1 {
		t.Fatalf("compacted segment has %d lines, want 1:\n%s", n, data)
	}
	if got := pendingKeys(j2.Pending()); len(got) != 1 || got[0] != "k4" {
		t.Fatalf("pending after compaction = %v, want [k4]", got)
	}
}

// TestJournalLiveCompaction: once wal.CompactEvery tombstones accumulate
// the log is rewritten in place, bounded by the backlog.
func TestJournalLiveCompaction(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, JournalOptions{})
	defer j.Close()
	settles := 2 * wal.CompactEvery
	for i := 0; i < settles+2; i++ {
		if err := j.Accept(acceptRec(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < settles; i++ {
		if err := j.Settle(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	// One compaction at open plus two live ones (after every
	// wal.CompactEvery settles).
	if st.Compactions != 3 {
		t.Fatalf("compactions = %d, want 3 (stats %+v)", st.Compactions, st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("segments after live compaction = %v, want one", names)
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Fatalf("live-compacted segment has %d lines, want 2 pending:\n%s", n, data)
	}
}

// TestJournalTornTailRecovery: a crash mid-append leaves a partial final
// line; replay skips it and keeps every intact record.
func TestJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j1 := openJournal(t, dir, JournalOptions{})
	for _, k := range []string{"a", "b"} {
		if err := j1.Accept(acceptRec(k)); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close()
	// Fabricate the torn tail: append a prefix of a valid record line
	// (journaled in a scratch directory) with no trailing newline, as a
	// crash mid-write would leave.
	scratch := t.TempDir()
	j0 := openJournal(t, scratch, JournalOptions{})
	if err := j0.Accept(Record{Key: "torn", Flow: "interactive"}); err != nil {
		t.Fatal(err)
	}
	j0.Close()
	full, err := os.ReadFile(onlySegment(t, scratch))
	if err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openJournal(t, dir, JournalOptions{})
	defer j2.Close()
	got := pendingKeys(j2.Pending())
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("pending after torn tail = %v, want [a b]", got)
	}
	if st := j2.Stats(); st.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", st.Truncated)
	}
}

// TestJournalSkipsCorruptMiddleLine: a corrupted line mid-segment (bit
// rot, or a torn write merged with a later append) is skipped while the
// lines around it replay.
func TestJournalSkipsCorruptMiddleLine(t *testing.T) {
	dir := t.TempDir()
	j1 := openJournal(t, dir, JournalOptions{})
	for _, k := range []string{"a", "b", "c"} {
		if err := j1.Accept(acceptRec(k)); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close()
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Flip a byte inside the middle record's JSON body.
	mid := []byte(lines[1])
	mid[len(mid)-10] ^= 0x01
	lines[1] = string(mid)
	if err := os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, dir, JournalOptions{})
	defer j2.Close()
	got := pendingKeys(j2.Pending())
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("pending around corrupt line = %v, want [a c]", got)
	}
	if st := j2.Stats(); st.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", st.Truncated)
	}
}

// TestJournalSettleUnknownKeyIsNoop: tombstoning a key with no pending
// accept (replayed duplicate, never-journaled job) does nothing.
func TestJournalSettleUnknownKeyIsNoop(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, JournalOptions{})
	defer j.Close()
	if err := j.Settle("ghost"); err != nil {
		t.Fatalf("Settle(ghost) = %v", err)
	}
	if st := j.Stats(); st.Settles != 0 {
		t.Fatalf("settles = %d after no-op settle", st.Settles)
	}
}

// TestJournalDegradesOnWriteError: a failing disk demotes the journal to
// memory-only — accepts still succeed in memory, admission never fails.
func TestJournalDegradesOnWriteError(t *testing.T) {
	dir := t.TempDir()
	ffs := &failFS{FS: store.DiskFS()}
	j := openJournal(t, dir, JournalOptions{FS: ffs})
	defer j.Close()
	if err := j.Accept(acceptRec("before")); err != nil {
		t.Fatalf("accept on healthy disk: %v", err)
	}
	ffs.broken.Store(true)
	if err := j.Accept(acceptRec("during")); err == nil {
		t.Fatal("accept during outage returned nil, want advisory error")
	}
	if !j.Degraded() {
		t.Fatal("journal not degraded after write error")
	}
	// Degraded journals absorb further traffic silently.
	if err := j.Accept(acceptRec("after")); err != nil {
		t.Fatalf("accept while degraded = %v, want nil", err)
	}
	if err := j.Settle("before"); err != nil {
		t.Fatalf("settle while degraded = %v, want nil", err)
	}
	if st := j.Stats(); st.Pending != 2 || !st.Degraded {
		t.Fatalf("stats while degraded = %+v", st)
	}
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("want exactly one segment, have %v", names)
	}
	return filepath.Join(dir, entries[0].Name())
}
