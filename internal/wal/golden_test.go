package wal_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"coordattack/internal/hints"
	"coordattack/internal/queue"
	"coordattack/internal/wal"
)

// The testdata segments were written through the queue journal's and
// the hint log's public APIs before either was rebuilt on this package,
// and the *-compacted.wal files are what that code's compact-on-open
// turned them into. They pin the bytes on disk: existing -queue-dir and
// hint directories must replay, and compact, exactly as they did.

func goldenKey(i int) string { return fmt.Sprintf("%064x", i) }

// goldenDir copies testdata/name into a fresh directory as its only
// segment.
func goldenDir(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// assertCompacted checks that compact-on-open left exactly the golden
// compacted segment behind.
func assertCompacted(t *testing.T, dir, golden string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "00000002.wal" {
		t.Fatalf("dir after open holds %v, want only 00000002.wal", entries)
	}
	got, err := os.ReadFile(filepath.Join(dir, "00000002.wal"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compacted segment differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestGoldenJournalSegment: accepts with fixed At, a settle, an intent
// with a thief, and a second settle replay to the intent and the
// untouched accept, in admission order.
func TestGoldenJournalSegment(t *testing.T) {
	dir := goldenDir(t, "journal.wal")
	j, err := queue.OpenJournal(dir, queue.JournalOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	want := []queue.Record{{
		Op: queue.OpIntent, Key: goldenKey(3),
		Flow: "sweep-0123456789abcdef", Class: "sweep", Priority: -3,
		Spec:  json.RawMessage(`{"protocol":"s:0.3","rounds":8,"run":"cut:5","seed":9,"trials":20000}`),
		Thief: "http://10.0.0.2:8344", At: 1760000000000000003,
	}, {
		Op: queue.OpAccept, Key: goldenKey(4),
		Flow: "sweep-0123456789abcdef", Class: "sweep",
		Spec: json.RawMessage(`{"protocol":"s:0.3","rounds":6,"run":"cut:5","seed":9,"trials":20000}`),
		At:   1760000000000000004,
	}}
	if got := j.Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed pending set:\n%+v\nwant:\n%+v", got, want)
	}
	wantStats := queue.JournalStats{Pending: 2, Replayed: 2, Compactions: 1}
	if got := j.Stats(); got != wantStats {
		t.Fatalf("stats = %+v, want %+v", got, wantStats)
	}
	j.Close()
	assertCompacted(t, dir, "journal-compacted.wal")
}

// TestGoldenHintSegment: adds for two peers and one delivery replay to
// each peer's remaining hints, oldest first.
func TestGoldenHintSegment(t *testing.T) {
	dir := goldenDir(t, "hints.wal")
	l, err := hints.Open(dir, hints.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	peerA, peerB := "http://10.0.0.2:8344", "http://10.0.0.3:8344"
	if got := l.Peers(); !reflect.DeepEqual(got, []string{peerA, peerB}) {
		t.Fatalf("peers = %v", got)
	}
	if got := l.Pending(peerA); !reflect.DeepEqual(got, []string{goldenKey(2)}) {
		t.Fatalf("pending for A = %v", got)
	}
	if got := l.Pending(peerB); !reflect.DeepEqual(got, []string{goldenKey(1), goldenKey(3)}) {
		t.Fatalf("pending for B = %v", got)
	}
	wantStats := hints.Stats{Pending: 3, Peers: 2, Replayed: 3}
	if got := l.Stats(); got != wantStats {
		t.Fatalf("stats = %+v, want %+v", got, wantStats)
	}
	l.Close()
	assertCompacted(t, dir, "hints-compacted.wal")
}

// TestGoldenRecordsReencode: every record in the golden segments, live
// or tombstone, re-encodes to its original line byte for byte. Read as
// everyLine records, each line is live under its own key, so the
// compaction at open rewrites a copy of the segment it read.
func TestGoldenRecordsReencode(t *testing.T) {
	t.Run("journal", func(t *testing.T) {
		reencode[queue.Record](t, "coordd-queue/v1", "journal.wal")
	})
	t.Run("hints", func(t *testing.T) {
		reencode[hints.Record](t, "coordd-hints/v1", "hints.wal")
	})
}

// everyLine is a golden line's record R, keyed by the JSON it was read
// from and re-encoded from R alone.
type everyLine[R any] struct {
	rec R
	raw string
}

func (e *everyLine[R]) UnmarshalJSON(b []byte) error {
	e.raw = string(b)
	return json.Unmarshal(b, &e.rec)
}

func (e everyLine[R]) MarshalJSON() ([]byte, error) { return json.Marshal(e.rec) }

func (e everyLine[R]) Entry() (string, bool, error) { return e.raw, true, nil }

func reencode[R any](t *testing.T, version, name string) {
	dir := goldenDir(t, name)
	l, err := wal.Open[everyLine[R]](dir, wal.Options{Version: version})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte{'\n'}); l.Truncated() != 0 || l.Len() != n {
		t.Fatalf("replayed %d of %d lines with %d truncated", l.Len(), n, l.Truncated())
	}
	assertCompacted(t, dir, name)
}
