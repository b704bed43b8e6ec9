package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"coordattack/internal/store"
)

const testVersion = "coordd-test/v1"

// rec is the test record, shaped like the adapters' records: an op on a
// key with an optional timestamp. A put sets its key, a del ends it.
type rec struct {
	Op  string `json:"op"`
	Key string `json:"key"`
	At  int64  `json:"at,omitempty"`
}

func (r rec) Entry() (string, bool, error) {
	if r.Op != "put" && r.Op != "del" {
		return "", false, fmt.Errorf("invalid record op %q", r.Op)
	}
	return r.Key, r.Op == "put", nil
}

// testLog is a Log that keeps the lines it logs.
type testLog struct {
	*Log[rec]
	logged []string
}

func openLog(t *testing.T, dir string, fs store.FS) *testLog {
	t.Helper()
	tl := &testLog{}
	l, err := Open[rec](dir, Options{
		Version: testVersion,
		Name:    "wal: test",
		FS:      fs,
		Logf: func(format string, args ...any) {
			tl.logged = append(tl.logged, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	tl.Log = l
	return tl
}

func (tl *testLog) put(key string) error {
	return tl.Put(rec{Op: "put", Key: key})
}

func (tl *testLog) del(key string) error {
	_, err := tl.Drop(rec{Op: "del", Key: key})
	return err
}

// keys lists the live keys in order.
func (tl *testLog) keys() []string {
	var out []string
	tl.Live(func(r rec) bool {
		out = append(out, r.Key)
		return true
	})
	return out
}

func (tl *testLog) mustPut(t *testing.T, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if err := tl.put(k); err != nil {
			t.Fatalf("put(%s): %v", k, err)
		}
	}
}

func (tl *testLog) mustDel(t *testing.T, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if err := tl.del(k); err != nil {
			t.Fatalf("del(%s): %v", k, err)
		}
	}
}

// countFS counts every filesystem call, file handles included, and
// fails the mutating ones while fail is set. With nosync set, a sync
// succeeds without reaching the disk, for tests that reopen but never
// crash.
type countFS struct {
	store.FS
	calls  int
	fail   bool
	nosync bool
}

type countFile struct {
	store.File
	fs *countFS
}

var errInjected = errors.New("countFS: injected write error")

func (f *countFS) call(mutating bool) error {
	f.calls++
	if mutating && f.fail {
		return errInjected
	}
	return nil
}

func (f *countFS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.call(true); err != nil {
		return err
	}
	return f.FS.MkdirAll(path, perm)
}

func (f *countFS) ReadDir(name string) ([]os.DirEntry, error) {
	f.call(false)
	return f.FS.ReadDir(name)
}

func (f *countFS) ReadFile(name string) ([]byte, error) {
	f.call(false)
	return f.FS.ReadFile(name)
}

func (f *countFS) Rename(oldpath, newpath string) error {
	if err := f.call(true); err != nil {
		return err
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *countFS) Remove(name string) error {
	if err := f.call(true); err != nil {
		return err
	}
	return f.FS.Remove(name)
}

func (f *countFS) CreateTemp(dir, pattern string) (store.File, error) {
	if err := f.call(true); err != nil {
		return nil, err
	}
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f}, nil
}

func (f *countFS) SyncDir(name string) error {
	if err := f.call(true); err != nil || f.nosync {
		return err
	}
	return f.FS.SyncDir(name)
}

func (f *countFile) Write(p []byte) (int, error) {
	if err := f.fs.call(true); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *countFile) Sync() error {
	if err := f.fs.call(true); err != nil || f.fs.nosync {
		return err
	}
	return f.File.Sync()
}

func (f *countFile) Close() error {
	f.fs.call(false)
	return f.File.Close()
}

// onlySegment returns dir's one entry, failing unless it is a segment.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || !strings.HasSuffix(names[0], ".wal") {
		t.Fatalf("dir holds %v, want exactly one segment", names)
	}
	return filepath.Join(dir, names[0])
}

func lines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// TestReplayAfterReopen: puts minus dels is exactly what a reopened log
// replays, in order.
func TestReplayAfterReopen(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, nil)
	l.mustPut(t, "a", "b", "c", "d")
	l.mustDel(t, "b")
	l.Close()

	re := openLog(t, dir, nil)
	defer re.Close()
	if want := []string{"a", "c", "d"}; !reflect.DeepEqual(re.keys(), want) {
		t.Fatalf("replayed %v, want %v", re.keys(), want)
	}
	if re.Degraded() || re.Truncated() != 0 {
		t.Fatalf("degraded=%v truncated=%d after clean reopen", re.Degraded(), re.Truncated())
	}
}

// TestCompactOnOpen: reopening rewrites the log into one fresh segment
// holding only the live records, and sweeps stray temp files.
func TestCompactOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, nil)
	l.mustPut(t, "k0", "k1", "k2", "k3", "k4")
	l.mustDel(t, "k0", "k1", "k2", "k3")
	l.Close()
	// A crash mid-compaction leaves a temp file behind.
	if err := os.WriteFile(filepath.Join(dir, "tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openLog(t, dir, nil)
	re.Close()
	if seg := onlySegment(t, dir); filepath.Base(seg) != "00000002.wal" || lines(t, seg) != 1 {
		t.Fatalf("compacted segment %s has %d lines, want 00000002.wal with 1", seg, lines(t, seg))
	}
	if !reflect.DeepEqual(re.keys(), []string{"k4"}) {
		t.Fatalf("replayed %v, want [k4]", re.keys())
	}
	if re.Compactions() != 1 {
		t.Fatalf("compactions = %d, want 1 (at open)", re.Compactions())
	}
}

// TestLiveCompaction: once every tombstones accumulate the log is
// rewritten in place, bounded by the backlog.
func TestLiveCompaction(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, nil)
	defer l.Close()
	l.every = 3
	l.mustPut(t, "k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7")
	l.mustDel(t, "k0", "k1", "k2", "k3", "k4", "k5")
	// One compaction at open plus two live ones (after the 3rd and 6th
	// tombstones).
	if l.Compactions() != 3 {
		t.Fatalf("compactions = %d, want 3", l.Compactions())
	}
	if n := lines(t, onlySegment(t, dir)); n != 2 {
		t.Fatalf("live-compacted segment has %d lines, want the 2 live records", n)
	}
	// Appends after a live compaction land in the new segment.
	l.mustPut(t, "k8")
	re := openLog(t, dir, nil)
	defer re.Close()
	if want := []string{"k6", "k7", "k8"}; !reflect.DeepEqual(re.keys(), want) {
		t.Fatalf("replayed %v, want %v", re.keys(), want)
	}
}

// TestTornTail: a crash mid-append leaves a partial final line; replay
// counts and skips it and keeps every intact record.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, nil)
	l.mustPut(t, "a", "b")
	l.Close()
	full, err := encodeLine(testVersion, rec{Op: "put", Key: "torn"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(onlySegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openLog(t, dir, nil)
	defer re.Close()
	if !reflect.DeepEqual(re.keys(), []string{"a", "b"}) || re.Truncated() != 1 {
		t.Fatalf("replayed %v with %d truncated, want [a b] with 1", re.keys(), re.Truncated())
	}
	if len(re.logged) != 1 || !strings.Contains(re.logged[0], "dropped undecodable record") {
		t.Fatalf("log lines = %q, want one dropped-record line", re.logged)
	}
}

// TestSkipsBadMiddleLines: a corrupted line mid-segment (bit rot, or a
// torn write merged with a later append), a line of another version,
// and a checksummed record the adapter rejects are each counted and
// skipped while the lines around them replay.
func TestSkipsBadMiddleLines(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, nil)
	l.mustPut(t, "a", "b", "c")
	l.Close()
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	segLines := strings.SplitAfter(string(data), "\n")
	mid := []byte(segLines[1])
	mid[len(mid)-10] ^= 0x01 // flip a byte inside b's JSON body
	segLines[1] = string(mid)
	other, _ := encodeLine("coordd-other/v1", rec{Op: "put", Key: "x"})
	bogus, _ := encodeLine(testVersion, rec{Op: "bogus", Key: "y"})
	bad := segLines[0] + segLines[1] + string(other) + string(bogus) + segLines[2]
	if err := os.WriteFile(seg, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openLog(t, dir, nil)
	defer re.Close()
	if !reflect.DeepEqual(re.keys(), []string{"a", "c"}) || re.Truncated() != 3 {
		t.Fatalf("replayed %v with %d truncated, want [a c] with 3", re.keys(), re.Truncated())
	}
}

// TestDegradeOnceLogOnce: a write error demotes the log to memory-only
// exactly once — later appends succeed without touching the disk and
// log nothing more — while the caller's state keeps every record.
func TestDegradeOnceLogOnce(t *testing.T) {
	fs := &countFS{FS: store.DiskFS()}
	l := openLog(t, t.TempDir(), fs)
	defer l.Close()
	l.mustPut(t, "before")
	fs.fail = true
	if err := l.put("during"); !errors.Is(err, errInjected) {
		t.Fatalf("put during outage = %v, want the injected error", err)
	}
	if !l.Degraded() {
		t.Fatal("write error did not demote the log")
	}
	fs.fail = false
	l.mustPut(t, "after")
	l.mustDel(t, "before")
	if len(l.logged) != 1 || !strings.Contains(l.logged[0], "degraded to memory-only") {
		t.Fatalf("log lines = %q, want exactly one degradation line", l.logged)
	}
	if want := []string{"during", "after"}; !reflect.DeepEqual(l.keys(), want) {
		t.Fatalf("memory state = %v, want %v", l.keys(), want)
	}
}

// TestClosedOrDemotedLogMakesNoFSCalls: after Close, or after a write
// error demotes it, the log makes no filesystem call at all — not for
// appends, and not for the live compaction that enough tombstones would
// otherwise trigger — even once the disk is healthy again.
func TestClosedOrDemotedLogMakesNoFSCalls(t *testing.T) {
	for _, stop := range []string{"close", "demote"} {
		t.Run(stop, func(t *testing.T) {
			fs := &countFS{FS: store.DiskFS()}
			dir := t.TempDir()
			l := openLog(t, dir, fs)
			l.every = 2
			l.mustPut(t, "a", "b", "c", "d")
			if stop == "close" {
				l.Close()
			} else {
				fs.fail = true
				if err := l.put("e"); err == nil {
					t.Fatal("put during outage returned nil")
				}
				fs.fail = false
			}
			before := fs.calls
			l.mustPut(t, "f")
			l.mustDel(t, "a", "b", "c", "d")
			if fs.calls != before {
				t.Fatalf("%s log made %d filesystem calls", stop, fs.calls-before)
			}
			if !l.Degraded() {
				t.Fatalf("%s log does not report degraded", stop)
			}
			onlySegment(t, dir)
		})
	}
}

// TestMemoryOnly: a log opened with an empty dir never touches the
// filesystem and never reports degraded.
func TestMemoryOnly(t *testing.T) {
	fs := &countFS{FS: store.DiskFS()}
	l := openLog(t, "", fs)
	l.every = 2
	l.mustPut(t, "a", "b", "c")
	l.mustDel(t, "a", "b")
	l.Close()
	if fs.calls != 0 {
		t.Fatalf("memory-only log made %d filesystem calls", fs.calls)
	}
	if l.Degraded() || !reflect.DeepEqual(l.keys(), []string{"c"}) {
		t.Fatalf("degraded=%v keys=%v, want healthy [c]", l.Degraded(), l.keys())
	}
}

// TestAppendIsOneWriteOneSync pins the FS call sequence chaos.FS and the
// benchmark's traced FS rely on: each Put and each Drop is one Write of
// the whole line followed by one Sync, and a Drop of a key that is not
// live writes nothing.
func TestAppendIsOneWriteOneSync(t *testing.T) {
	fs := &countFS{FS: store.DiskFS()}
	l := openLog(t, t.TempDir(), fs)
	defer l.Close()
	for _, step := range []struct {
		op    func(string) error
		key   string
		calls int
	}{{l.put, "a", 2}, {l.put, "a", 2}, {l.del, "a", 2}, {l.del, "a", 0}} {
		before := fs.calls
		if err := step.op(step.key); err != nil {
			t.Fatal(err)
		}
		if got := fs.calls - before; got != step.calls {
			t.Fatalf("step %+v made %d filesystem calls, want %d", step, got, step.calls)
		}
	}
}

// TestLineRoundTrip: a line decodes back to its record; flipping one
// body byte breaks the checksum, and another version is refused.
func TestLineRoundTrip(t *testing.T) {
	r := rec{Op: "put", Key: "k7", At: 42}
	line, err := encodeLine(testVersion, r)
	if err != nil {
		t.Fatal(err)
	}
	body := line[:len(line)-1] // strip the newline
	got, err := decodeLine[rec](testVersion, body)
	if err != nil || got != r {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, r)
	}
	corrupt := append([]byte(nil), body...)
	corrupt[len(corrupt)-2] ^= 1
	if _, err := decodeLine[rec](testVersion, corrupt); err == nil {
		t.Fatal("corrupted line decoded cleanly")
	}
	if _, err := decodeLine[rec]("coordd-other/v1", body); err == nil {
		t.Fatal("line decoded under another version")
	}
}

// liveModel is the live set folded the plain way: a map of each key's
// last live record and its line size, and a slice of the live keys in
// the order they became live.
type liveModel struct {
	recs  map[string]rec
	sizes map[string]int64
	order []string
}

func newModel() *liveModel {
	return &liveModel{recs: map[string]rec{}, sizes: map[string]int64{}}
}

func (m *liveModel) clone() *liveModel {
	c := newModel()
	for k, r := range m.recs {
		c.recs[k], c.sizes[k] = r, m.sizes[k]
	}
	c.order = append([]string(nil), m.order...)
	return c
}

func (m *liveModel) apply(r rec, size int64) {
	key, live, _ := r.Entry()
	_, was := m.recs[key]
	switch {
	case live && !was:
		m.order = append(m.order, key)
		fallthrough
	case live:
		m.recs[key], m.sizes[key] = r, size
	case was:
		delete(m.recs, key)
		delete(m.sizes, key)
		for i, k := range m.order {
			if k == key {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
	}
}

// check fails t unless l's live set is the model's: order, records, Len
// and the metered byte size.
func (m *liveModel) check(t *testing.T, what string, l *Log[rec]) {
	t.Helper()
	var got []rec
	l.Live(func(r rec) bool {
		got = append(got, r)
		return true
	})
	want := make([]rec, len(m.order))
	var size int64
	for i, k := range m.order {
		want[i] = m.recs[k]
		size += m.sizes[k]
	}
	if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: live set %+v, want %+v", what, got, want)
	}
	if l.Len() != len(want) || l.Bytes() != size {
		t.Fatalf("%s: Len %d, Bytes %d; want %d, %d", what, l.Len(), l.Bytes(), len(want), size)
	}
	for _, k := range m.order {
		if r, ok := l.Get(k); !ok || r != m.recs[k] {
			t.Fatalf("%s: Get(%s) = %+v, %v; want %+v", what, k, r, ok, m.recs[k])
		}
	}
}

// lineSize is the metered size of r's line.
func lineSize(t *testing.T, r rec) int64 {
	line, err := encodeLine(testVersion, r)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(line))
}

// liveProgram is a seeded random op sequence for FuzzLiveSet.
func liveProgram(seed uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	prog := make([]byte, n)
	for i := range prog {
		prog[i] = byte(rng.Uint32())
	}
	return prog
}

// FuzzLiveSet runs an op program against a Log and a liveModel in step.
// Each byte is one op on one of eight keys: puts of new and live keys
// (each with a fresh At, so a re-put changes the record and its size),
// drops of live and absent keys, a switch that fails every mutating
// filesystem call, and a reopen. Live compactions run every three drops.
// After every op the live set must match the model; after every reopen
// it must match what reached the disk — every op up to the first failed
// write since the last open, none after it.
func FuzzLiveSet(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x10, 0x03, 0x07, 0x13, 0x07, 0x33, 0x06, 0x16, 0x07})
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(liveProgram(seed, 200))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 200 {
			return
		}
		fs := &countFS{FS: store.DiskFS(), nosync: true}
		dir := t.TempDir()
		l := openLog(t, dir, fs)
		defer func() { l.Close() }()
		l.every = 3
		mem, disk := newModel(), newModel()
		for step, b := range prog {
			key := fmt.Sprintf("k%d", b>>5)
			what := fmt.Sprintf("op %d (%#02x)", step, b)
			healthy := !l.Degraded()
			switch b & 7 {
			case 0, 1, 2: // put
				r := rec{Op: "put", Key: key, At: int64(step + 1)}
				err := l.Put(r)
				if (err != nil) != (fs.fail && healthy) {
					t.Fatalf("%s: Put = %v with fail=%v healthy=%v", what, err, fs.fail, healthy)
				}
				mem.apply(r, lineSize(t, r))
				if err == nil && healthy {
					disk.apply(r, lineSize(t, r))
				}
			case 3, 4: // drop
				_, live := mem.recs[key]
				before := fs.calls
				dropped, err := l.Drop(rec{Op: "del", Key: key})
				if dropped != live || (err != nil) != (live && fs.fail && healthy) {
					t.Fatalf("%s: Drop = %v, %v; live=%v fail=%v healthy=%v", what, dropped, err, live, fs.fail, healthy)
				}
				if !live && fs.calls != before {
					t.Fatalf("%s: Drop of an absent key made %d filesystem calls", what, fs.calls-before)
				}
				mem.apply(rec{Op: "del", Key: key}, 0)
				if err == nil && healthy {
					disk.apply(rec{Op: "del", Key: key}, 0)
				}
			case 5, 6: // fail switch
				fs.fail = !fs.fail
			case 7: // reopen
				l.Close()
				fs.fail = false
				l = openLog(t, dir, fs)
				l.every = 3
				mem = disk.clone()
				what += " after reopen"
			}
			mem.check(t, what, l.Log)
		}
	})
}

// FuzzWALReplay: arbitrary bytes as one segment. Open never panics or
// errors, every replayed record — live, tombstone or invalid op —
// re-encodes to a line that decodes to itself, and the live set is the
// model's fold of the lines that decode.
func FuzzWALReplay(f *testing.F) {
	const version = "coordd-queue/v1"
	for _, name := range []string{"journal.wal", "hints.wal"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	var seg []byte
	for _, r := range []rec{{"put", "a", 1}, {"put", "b", 2}, {"put", "a", 3}, {"del", "b", 0}, {"del", "c", 0}, {"mark", "a", 5}, {"put", "b", 4}} {
		line, _ := encodeLine(version, r)
		seg = append(seg, line...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-7])
	f.Add([]byte(version + " \n\n\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open[rec](dir, Options{Version: version})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		l.Close()
		m := newModel()
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			r, err := decodeLine[rec](version, line)
			if err != nil {
				continue
			}
			again, err := encodeLine(version, r)
			if err != nil {
				t.Fatalf("re-encode %+v: %v", r, err)
			}
			back, err := decodeLine[rec](version, again[:len(again)-1])
			if err != nil || back != r {
				t.Fatalf("re-encoded %+v decodes to %+v, %v", r, back, err)
			}
			if _, _, bad := r.Entry(); bad == nil {
				m.apply(r, int64(len(line)+1))
			}
		}
		m.check(t, "replay", l)
	})
}
