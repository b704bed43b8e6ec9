package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"coordattack/internal/mc"
	"coordattack/internal/service"
	"coordattack/internal/store"
)

// span is one timed call at a layer boundary, joined to its job by the
// content key the call carried.
type span struct {
	name string
	key  string
	iv   interval
}

// tracer records spans from the hooks a traced run installs on the
// daemon's public injection points. Spans are kept only for keys of
// requests the load generator marked as traced (want/unwant), so the
// other requests of the traced run pay a map lookup and a counter, which
// is what the trace.overhead_pct comparison measures against. Counts and
// summed durations per span name are kept for every call.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	want   map[string]int
	counts map[string]int64
	totals map[string]time.Duration
	// tmp maps a store temp file to its open handle until the rename
	// that names its key; lastKey maps a shard directory to the key last
	// renamed into it, for the directory fsync that follows.
	tmp     map[string]*tracedFile
	lastKey map[string]string
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{
		epoch:   epoch,
		want:    make(map[string]int),
		counts:  make(map[string]int64),
		totals:  make(map[string]time.Duration),
		tmp:     make(map[string]*tracedFile),
		lastKey: make(map[string]string),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// mark starts (on) or ends (off) tracing of one request's key.
func (t *tracer) mark(key string, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if on {
		t.want[key]++
		return
	}
	if t.want[key]--; t.want[key] <= 0 {
		delete(t.want, key)
	}
}

// observe counts one call and keeps its span when key is traced.
func (t *tracer) observe(name, key string, lo, hi int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name]++
	t.totals[name] += time.Duration(hi - lo)
	if key != "" && t.want[key] > 0 {
		t.spans = append(t.spans, span{name: name, key: key, iv: interval{lo, hi}})
	}
}

// byKey indexes the recorded spans by key.
func (t *tracer) byKey() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]span)
	for _, s := range t.spans {
		out[s.key] = append(out[s.key], s)
	}
	return out
}

// durations returns the recorded span durations named name.
func (t *tracer) durations(name string) dist {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d dist
	for _, s := range t.spans {
		if s.name == name {
			d = append(d, time.Duration(s.iv.hi-s.iv.lo))
		}
	}
	return d
}

// wrapEngine is the service.Config.WrapEngine hook: one span per engine
// execution, named mc.run or experiments.run.
func (t *tracer) wrapEngine(engine string, next service.RunFunc) service.RunFunc {
	name := "mc.run"
	if engine == service.EngineExperiment {
		name = "experiments.run"
	}
	return func(ctx context.Context, spec service.JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
		key := spec.Key()
		lo := t.now()
		body, err := next(ctx, spec, workers, progress)
		t.observe(name, key, lo, t.now())
		return body, err
	}
}

// tracedFS wraps the disk filesystem the store ("store") or the queue
// journal ("queue") writes through.
type tracedFS struct {
	store.FS
	t     *tracer
	layer string
}

func (t *tracer) fs(layer string) store.FS { return &tracedFS{FS: store.DiskFS(), t: t, layer: layer} }

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	lo := f.t.now()
	data, err := f.FS.ReadFile(name)
	f.t.observe(f.layer+".read", filepath.Base(name), lo, f.t.now())
	return data, err
}

func (f *tracedFS) CreateTemp(dir, pattern string) (store.File, error) {
	lo := f.t.now()
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	tf := &tracedFile{File: file, fs: f, created: lo}
	if f.layer == "store" {
		f.t.mu.Lock()
		f.t.tmp[file.Name()] = tf
		f.t.mu.Unlock()
	}
	return tf, nil
}

// Rename completes a store write: the destination names the key, so the
// write (temp create → rename) and its file fsync are recorded here.
func (f *tracedFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	if f.layer != "store" {
		return err
	}
	hi := f.t.now()
	key := filepath.Base(newpath)
	f.t.mu.Lock()
	tf := f.t.tmp[oldpath]
	delete(f.t.tmp, oldpath)
	f.t.lastKey[filepath.Dir(newpath)] = key
	f.t.mu.Unlock()
	if tf != nil {
		f.t.observe("store.write", key, tf.created, hi)
		f.t.observe("store.fsync", key, tf.sync.lo, tf.sync.hi)
	}
	return err
}

func (f *tracedFS) SyncDir(name string) error {
	lo := f.t.now()
	err := f.FS.SyncDir(name)
	hi := f.t.now()
	f.t.mu.Lock()
	key := f.t.lastKey[name]
	f.t.mu.Unlock()
	f.t.observe(f.layer+".syncdir", key, lo, hi)
	return err
}

// tracedFile times one file's fsyncs. For the journal each Write is one
// record line, whose key is parsed from the line so the append (write
// plus fsync) joins its job.
type tracedFile struct {
	store.File
	fs      *tracedFS
	created int64
	sync    interval
	wrote   int64
	key     string
}

func (tf *tracedFile) Write(p []byte) (int, error) {
	tf.wrote = tf.fs.t.now()
	if tf.fs.layer == "queue" {
		tf.key = journalKey(p)
	}
	return tf.File.Write(p)
}

func (tf *tracedFile) Sync() error {
	lo := tf.fs.t.now()
	err := tf.File.Sync()
	hi := tf.fs.t.now()
	tf.sync = interval{lo, hi}
	if tf.fs.layer == "queue" {
		tf.fs.t.observe("queue.journal_sync", tf.key, lo, hi)
		tf.fs.t.observe("queue.journal_append", tf.key, tf.wrote, hi)
	}
	return err
}

// journalKey extracts the job key from one journal record line.
func journalKey(line []byte) string {
	const field = `"key":"`
	i := bytes.Index(line, []byte(field))
	if i < 0 || len(line) < i+len(field)+64 {
		return ""
	}
	return string(line[i+len(field) : i+len(field)+64])
}

// tracedTransport times every peer-protocol request by route.
type tracedTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (t *tracer) transport() http.RoundTripper {
	return &tracedTransport{next: http.DefaultTransport.(*http.Transport).Clone(), t: t}
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, key := peerRoute(req.Method, req.URL.Path)
	lo := tt.t.now()
	resp, err := tt.next.RoundTrip(req)
	if name == "cluster.fetch" && (err != nil || resp.StatusCode != http.StatusOK) {
		name = "cluster.fetch_miss"
	}
	tt.t.observe(name, key, lo, tt.t.now())
	return resp, err
}

// peerRoute names a peer-protocol request and the key its path carries.
func peerRoute(method, path string) (string, string) {
	rest, ok := strings.CutPrefix(path, "/v1/peer/")
	if !ok {
		return "cluster.other", ""
	}
	switch {
	case strings.HasPrefix(rest, "results/") && method == http.MethodGet:
		return "cluster.fetch", strings.TrimPrefix(rest, "results/")
	case strings.HasPrefix(rest, "results/"):
		return "cluster.push", strings.TrimPrefix(rest, "results/")
	case strings.HasPrefix(rest, "jobs/"):
		return "cluster.knows", strings.TrimPrefix(rest, "jobs/")
	case rest == "ping":
		return "cluster.ping", ""
	case rest == "steal/commit":
		return "cluster.commit", ""
	case rest == "steal":
		return "cluster.steal", ""
	}
	return "cluster.other", ""
}

// writeSpans dumps the recorded spans as JSON lines, for inspection after
// the run.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b bytes.Buffer
	for _, s := range t.spans {
		line, _ := json.Marshal(struct {
			Name  string `json:"name"`
			Key   string `json:"key"`
			Start int64  `json:"start_ns"`
			End   int64  `json:"end_ns"`
		}{s.name, s.key, s.iv.lo, s.iv.hi})
		b.Write(line)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
