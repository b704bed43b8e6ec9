package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"coordattack/internal/cluster"
)

func testHTTPServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, *Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
	return resp.StatusCode, &st
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd is the served version of the acceptance flow: submit
// a job, poll it to completion, submit the identical spec again, and
// verify via /metrics that the second answer came from the cache with a
// bit-identical result.
func TestHTTPEndToEnd(t *testing.T) {
	_, ts := testHTTPServer(t, Config{Workers: 2})

	const spec = `{"protocol": "s:0.3", "trials": 2000, "seed": 9}`
	code, st := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first POST code %d, want 202", code)
	}

	var fin Status
	deadline := time.Now().Add(15 * time.Second)
	for {
		if getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &fin) != http.StatusOK {
			t.Fatal("poll failed")
		}
		if fin.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", fin.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fin.State != StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}

	code, st2 := postJob(t, ts, spec)
	if code != http.StatusOK || st2.State != StateDone || !st2.Cached {
		t.Fatalf("second POST code %d state %s cached %v, want immediate cache hit", code, st2.State, st2.Cached)
	}
	if !bytes.Equal(st2.Result, fin.Result) {
		t.Error("cached result not bit-identical to computed result")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"coordd_cache_hits_total 1",
		"coordd_jobs_completed_total 1",
		"coordd_jobs_submitted_total 2",
		"coordd_trials_executed_total 2000",
		"coordd_job_duration_seconds_bucket",
		`coordd_jobs_running{class="interactive"} 0`,
		`coordd_jobs_running{class="sweep"} 0`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if getJSON(t, ts.URL+"/healthz", &health) != http.StatusOK || health.Status != "ok" || health.Draining {
		t.Errorf("healthz %+v", health)
	}
}

func TestHTTPValidationAndErrors(t *testing.T) {
	_, ts := testHTTPServer(t, Config{Workers: 1})

	if code, _ := postJob(t, ts, `{"protocol": "zzz"}`); code != http.StatusBadRequest {
		t.Errorf("bad protocol: code %d, want 400", code)
	}
	if code, _ := postJob(t, ts, `{"protocol": "s:0.1", "fault": "rand:NaN", "trials": 10}`); code != http.StatusBadRequest {
		t.Errorf("NaN fault: code %d, want 400", code)
	}
	if code, _ := postJob(t, ts, `{"protocl": "s:0.1"}`); code != http.StatusBadRequest {
		t.Errorf("typoed field: code %d, want 400", code)
	}
	if code, _ := postJob(t, ts, `not json`); code != http.StatusBadRequest {
		t.Errorf("garbage body: code %d, want 400", code)
	}
	if getJSON(t, ts.URL+"/v1/jobs/j999999", nil) != http.StatusNotFound {
		t.Error("unknown job should 404")
	}

	var exps struct {
		Experiments []string `json:"experiments"`
	}
	if getJSON(t, ts.URL+"/v1/experiments", &exps) != http.StatusOK || len(exps.Experiments) < 20 {
		t.Errorf("experiments registry %+v", exps)
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// unread fails the test if anything reads it.
type unread struct{ t *testing.T }

func (r unread) Read([]byte) (int, error) {
	r.t.Error("a body declared past the bound was read")
	return 0, io.EOF
}

// TestHTTPBodyPastBoundIs413: a submission body one byte longer than
// maxBodyBytes answers 413 with the JSON error body, though it is a
// valid spec behind leading whitespace that would otherwise decode. The
// body is generated as it is read, so the test never holds it. A job or
// sweep whose Content-Length declares that size answers 413 without a
// byte of its body read.
func TestHTTPBodyPastBoundIs413(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	spec := `{"protocol": "s:0.5", "rounds": 2, "trials": 100}`
	body := io.MultiReader(io.LimitReader(spaces{}, int64(maxBodyBytes+1-len(spec))), strings.NewReader(spec))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("code %d for a body one byte past the bound, want 413", rec.Code)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("413 body %q is not an API error (%v)", rec.Body.String(), err)
	}
	if n := s.Metrics().JobsSubmitted.Load(); n != 0 {
		t.Fatalf("%d jobs submitted from an oversized body", n)
	}
	for _, path := range []string{"/v1/jobs", "/v1/sweeps"} {
		req := httptest.NewRequest(http.MethodPost, path, unread{t})
		req.ContentLength = maxBodyBytes + 1
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: code %d for a declared body one byte past the bound, want 413", path, rec.Code)
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: 413 body %q is not an API error (%v)", path, rec.Body.String(), err)
		}
	}
}

// probeBody is a request body that signals its first Read on read and
// then answers with head, then blocks until release closes (EOF).
type probeBody struct {
	head    string
	read    chan struct{}
	release chan struct{}
	once    bool
}

func newProbeBody(head string) *probeBody {
	return &probeBody{head: head, read: make(chan struct{}), release: make(chan struct{})}
}

func (b *probeBody) Read(p []byte) (int, error) {
	if !b.once {
		b.once = true
		close(b.read)
		return copy(p, b.head), nil
	}
	<-b.release
	return 0, io.EOF
}

// TestLargeBodiesDecodeOneAtATime: a submission whose body declares
// more than largeBodyBytes holds the one large-body slot while its
// handler runs, so an unsized body waits unread until it returns, and a
// waiting request whose client leaves gives up its place; a small
// declared body passes meanwhile.
func TestLargeBodiesDecodeOneAtATime(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	h := s.Handler()
	serve := func(path string, body io.Reader, size int64, ctx context.Context) chan int {
		req := httptest.NewRequest(http.MethodPost, path, body).WithContext(ctx)
		req.ContentLength = size
		code := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			code <- rec.Code
		}()
		return code
	}
	large := newProbeBody(`{"protocol": "a",`)
	largeDone := serve("/v1/jobs", large, 2<<20, context.Background())
	<-large.read

	unsized := newProbeBody(`{"protocol": "a", "trials": 50}`)
	close(unsized.release)
	unsizedDone := serve("/v1/sweeps", unsized, -1, context.Background())
	gone, leave := context.WithCancel(context.Background())
	goneBody := newProbeBody("")
	goneDone := serve("/v1/jobs", goneBody, -1, gone)

	small := `{"protocol": "a", "trials": 40}`
	if code := <-serve("/v1/jobs", strings.NewReader(small), int64(len(small)), context.Background()); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("small body answered %d while the slot was held, want 200 or 202", code)
	}
	leave()
	<-goneDone
	select {
	case <-goneBody.read:
		t.Fatal("the body of a request whose client left was read")
	default:
	}
	select {
	case <-unsized.read:
		t.Fatal("an unsized body was read while a large one held the slot")
	case <-time.After(50 * time.Millisecond):
	}
	close(large.release)
	if code := <-largeDone; code != http.StatusBadRequest {
		t.Fatalf("truncated large body answered %d, want 400", code)
	}
	<-unsized.read
	if code := <-unsizedDone; code != http.StatusBadRequest {
		t.Fatalf("unsized body, not a sweep spec, answered %d, want 400", code)
	}
}

// TestPeerBodyPastBoundIs413: a steal request one byte longer than
// maxPeerMsgBytes answers 413 with the JSON error body, though it is a
// valid message behind leading whitespace. Every daemon serves this
// route, standalone ones too.
func TestPeerBodyPastBoundIs413(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	msg := `{"want": 1, "thief": "http://127.0.0.1:9"}`
	body := io.MultiReader(io.LimitReader(spaces{}, int64(maxPeerMsgBytes+1-len(msg))), strings.NewReader(msg))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cluster.StealPath, body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("steal answered %d to a body one byte past the bound, want 413", rec.Code)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("413 body %q is not an API error (%v)", rec.Body.String(), err)
	}
}

// TestHTTPSurfaceJobsAndSweeps pins the replies the job and sweep
// routes share: an unknown id answers 404 with a JSON error on GET,
// DELETE and /watch; a POST whose body is not JSON or carries an
// unknown field answers 400 naming the spec it could not decode; a POST
// while the server drains answers 503; and the list answers 200 with a
// JSON array.
func TestHTTPSurfaceJobsAndSweeps(t *testing.T) {
	s, ts := testHTTPServer(t, Config{Workers: 1})
	kinds := []struct {
		name, path, unknown, valid string
	}{
		{"job", "/v1/jobs", "j999999", `{"protocol": "s:0.5", "rounds": 2, "trials": 200, "seed": 5}`},
		{"sweep", "/v1/sweeps", "sw999999", `{"base": {"protocol": "s:0.5", "rounds": 2, "trials": 200}, "axes": {"seeds": [6, 7]}}`},
	}
	do := func(method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	apiErr := func(label string, data []byte) string {
		t.Helper()
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not a JSON error", label, data)
		}
		return e.Error
	}
	list := func(k string, path string) {
		t.Helper()
		code, data := do(http.MethodGet, path, "")
		var all []json.RawMessage
		if code != http.StatusOK || json.Unmarshal(data, &all) != nil || all == nil {
			t.Errorf("list %s: %d %q, want 200 with a JSON array", k, code, data)
		}
	}
	for _, k := range kinds {
		for _, r := range []struct{ method, suffix string }{
			{http.MethodGet, ""}, {http.MethodDelete, ""}, {http.MethodGet, "/watch"},
		} {
			label := r.method + " " + k.path + "/" + k.unknown + r.suffix
			code, data := do(r.method, k.path+"/"+k.unknown+r.suffix, "")
			if code != http.StatusNotFound {
				t.Errorf("%s: code %d, want 404", label, code)
			}
			apiErr(label, data)
		}
		for _, body := range []string{`{"nope": 1}`, `not json`} {
			label := "POST " + k.path + " " + body
			code, data := do(http.MethodPost, k.path, body)
			if code != http.StatusBadRequest {
				t.Errorf("%s: code %d, want 400", label, code)
			}
			if msg := apiErr(label, data); !strings.HasPrefix(msg, "decoding "+k.name+" spec") {
				t.Errorf("%s: error %q, want it to start with %q", label, msg, "decoding "+k.name+" spec")
			}
		}
		list(k.name, k.path)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, k := range kinds {
		label := "POST " + k.path + " while draining"
		code, data := do(http.MethodPost, k.path, k.valid)
		if code != http.StatusServiceUnavailable {
			t.Errorf("%s: code %d, want 503", label, code)
		}
		apiErr(label, data)
		list(k.name, k.path)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	_, ts := testHTTPServer(t, Config{Workers: 1, QueueDepth: 1})
	slow := func(seed int) string {
		return fmt.Sprintf(`{"protocol": "s:0.05", "graph": "complete:8", "rounds": 40, "trials": 100000, "seed": %d}`, seed)
	}
	var over *http.Response
	for seed := 1; seed <= 4; seed++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(slow(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			over = resp
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %d: code %d", seed, resp.StatusCode)
		}
	}
	if over == nil {
		t.Fatal("queue never answered 429")
	}
	defer over.Body.Close()

	// The 429 carries a Retry-After header derived from the queue depth
	// and a structured JSON body mirroring it.
	secs, err := strconv.Atoi(over.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Errorf("Retry-After header %q, want a positive integer", over.Header.Get("Retry-After"))
	}
	var body struct {
		Error         string `json:"error"`
		RetryAfterSec int    `json:"retry_after_sec"`
		QueueDepth    int    `json:"queue_depth"`
		QueueCapacity int    `json:"queue_capacity"`
	}
	if err := json.NewDecoder(over.Body).Decode(&body); err != nil {
		t.Fatalf("429 body not structured JSON: %v", err)
	}
	if body.Error == "" || body.RetryAfterSec != secs || body.QueueCapacity != 1 {
		t.Errorf("429 body %+v inconsistent with header %d", body, secs)
	}

	// A sweep submitted into the same slammed queue is shed the same
	// way: 429 with Retry-After, instead of parking a dispatcher.
	sweepBody := `{"base": {"protocol": "s:0.3", "trials": 1000, "seed": 77}, "axes": {"rounds": [6, 8]}}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sweep into a full queue: code %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("sweep 429 Retry-After %q", resp.Header.Get("Retry-After"))
	}
}

func TestHTTPWatchStreamsProgress(t *testing.T) {
	_, ts := testHTTPServer(t, Config{Workers: 1})
	code, st := postJob(t, ts, `{"protocol": "s:0.2", "trials": 30000, "seed": 4}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST code %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var lines []Status
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var line Status
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no stream lines")
	}
	last := lines[len(lines)-1]
	if !last.State.Terminal() {
		t.Errorf("stream ended in non-terminal state %s", last.State)
	}
	if last.State == StateDone && last.Progress.Completed != 30000 {
		t.Errorf("final progress %+v", last.Progress)
	}
}

func TestHTTPCancelPreservesPartial(t *testing.T) {
	_, ts := testHTTPServer(t, Config{Workers: 1})
	code, st := postJob(t, ts, `{"protocol": "s:0.05", "graph": "complete:8", "rounds": 40, "trials": 100000, "seed": 13}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST code %d", code)
	}
	// Wait for progress, then cancel over HTTP.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur Status
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur)
		if cur.Progress.Completed > 0 || cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress")
		}
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE code %d", resp.StatusCode)
	}
	var fin Status
	deadline = time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &fin)
		if fin.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never settled after cancel")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if fin.State != StateCancelled {
		t.Errorf("state %s, want cancelled", fin.State)
	}
	var body struct {
		Partial bool `json:"partial"`
		Result  struct {
			Completed int `json:"completed"`
		} `json:"result"`
	}
	if fin.Result == nil {
		t.Fatal("cancelled job carried no result body")
	}
	if err := json.Unmarshal(fin.Result, &body); err != nil {
		t.Fatal(err)
	}
	if !body.Partial || body.Result.Completed == 0 {
		t.Errorf("cancelled job body %+v, want nonempty partial", body)
	}
}
