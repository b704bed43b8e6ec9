package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Request path classes, known from how each workload builds its
// requests.
const (
	pathMemHit  = "mem_hit"
	pathDiskHit = "disk_hit"
	pathPeerHit = "peer_hit"
	pathMiss    = "miss"
	pathSweep   = "sweep"
)

// rec is one client request as the load generator saw it. Times are
// nanoseconds since the run's epoch; due is when an open-loop arrival
// was scheduled (the send time for closed loops), and latency runs from
// due to the poll that observed the settled status.
type rec struct {
	path   string
	key    string
	id     string
	due    int64
	sent   int64
	posted int64 // submit response received
	pollLo int64 // the final poll, which observed the settled status
	pollHi int64
	end    int64
	polls  int
	jobs   int     // settled jobs this request stands for (sweep cells)
	cells  []int64 // observed settle time per sweep cell
	traced bool
	err    string
	// body is the compacted result of a settled job, for the output
	// oracle; cellIDs are a sweep's job ids.
	body    []byte
	cellIDs []string
}

func (r *rec) latency() time.Duration { return time.Duration(r.end - r.due) }

// recorder collects the generator's requests.
type recorder struct {
	mu   sync.Mutex
	recs []*rec
}

func (rs *recorder) add(r *rec) {
	rs.mu.Lock()
	rs.recs = append(rs.recs, r)
	rs.mu.Unlock()
}

func (rs *recorder) all() []*rec {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]*rec(nil), rs.recs...)
}

// client is the load generator's HTTP side: one process, at most
// maxConns connections per daemon, fixed-interval status polls.
type client struct {
	hc        *http.Client
	epoch     time.Time
	pollEvery time.Duration
	tr        *tracer
}

func newClient(epoch time.Time, maxConns int, pollEvery time.Duration) *client {
	return &client{
		hc: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     maxConns,
				MaxIdleConnsPerHost: maxConns,
				DisableCompression:  true,
			},
		},
		epoch:     epoch,
		pollEvery: pollEvery,
	}
}

func (c *client) now() int64 { return int64(time.Since(c.epoch)) }

func (c *client) close() { c.hc.CloseIdleConnections() }

// status is the part of a job status the generator reads.
type status struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	State  string          `json:"state"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

func terminal(state string) bool { return state == "done" || state == "failed" || state == "cancelled" }

// call sends one request and decodes a JSON reply into v.
func (c *client) call(method, url string, body []byte, v any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted) {
		if err := json.Unmarshal(data, v); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s reply: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// job submits one job spec to base and polls it until it settles,
// filling r. r.due must be set; r.key is the expected canonical key.
func (c *client) job(base string, spec []byte, r *rec) {
	if c.tr != nil && r.traced {
		c.tr.mark(r.key, true)
		defer c.tr.mark(r.key, false)
	}
	r.jobs = 1
	r.sent = c.now()
	var st status
	code, err := c.call(http.MethodPost, base+"/v1/jobs", spec, &st)
	r.posted = c.now()
	r.pollLo, r.pollHi = r.sent, r.posted
	switch {
	case err != nil:
		r.err = err.Error()
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		r.err = fmt.Sprintf("refused: %d", code)
	case code != http.StatusOK && code != http.StatusAccepted:
		r.err = fmt.Sprintf("submit answered %d", code)
	}
	for r.err == "" && !terminal(st.State) {
		time.Sleep(c.pollEvery)
		lo := c.now()
		code, err = c.call(http.MethodGet, base+"/v1/jobs/"+st.ID, nil, &st)
		r.pollLo, r.pollHi = lo, c.now()
		r.polls++
		if err != nil {
			r.err = err.Error()
		} else if code != http.StatusOK {
			r.err = fmt.Sprintf("poll answered %d", code)
		}
	}
	r.end = c.now()
	r.id = st.ID
	if r.err != "" {
		return
	}
	switch {
	case st.Key != r.key:
		r.err = fmt.Sprintf("served key %s, want %s", st.Key, r.key)
	case st.State != "done":
		r.err = fmt.Sprintf("job %s settled %s: %s", st.ID, st.State, st.Error)
	default:
		r.body = compact(st.Result)
	}
}

// sweepPollEvery spaces sweep status polls: each one renders every
// cell's row, so they are sparser than job polls.
const sweepPollEvery = 5 * time.Millisecond

// sweepStatus is the part of a sweep status the generator reads.
type sweepStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Table []struct {
		JobID string `json:"job_id"`
		Key   string `json:"key"`
		State string `json:"state"`
	} `json:"table"`
}

// sweep submits one sweep and polls it until every cell settles,
// recording when each cell was first seen settled. keys are the
// expected cell keys, in any order.
func (c *client) sweep(base string, spec []byte, keys []string, r *rec) {
	if c.tr != nil && r.traced {
		for _, k := range keys {
			c.tr.mark(k, true)
			defer c.tr.mark(k, false)
		}
	}
	r.jobs = len(keys)
	r.sent = c.now()
	var st sweepStatus
	code, err := c.call(http.MethodPost, base+"/v1/sweeps", spec, &st)
	r.posted = c.now()
	if err != nil || code != http.StatusAccepted {
		r.err = fmt.Sprintf("sweep submit answered %d: %v", code, err)
		r.end = c.now()
		return
	}
	r.id = st.ID
	seen := make([]bool, len(keys))
	r.cells = make([]int64, len(keys))
	for !terminal(st.State) {
		time.Sleep(sweepPollEvery)
		lo := c.now()
		code, err = c.call(http.MethodGet, base+"/v1/sweeps/"+st.ID, nil, &st)
		hi := c.now()
		r.pollLo, r.pollHi = lo, hi
		r.polls++
		if err != nil || code != http.StatusOK || len(st.Table) != len(keys) {
			r.err = fmt.Sprintf("sweep poll answered %d (%d rows): %v", code, len(st.Table), err)
			break
		}
		for i, row := range st.Table {
			if !seen[i] && terminal(row.State) {
				seen[i] = true
				r.cells[i] = hi
			}
		}
	}
	r.end = c.now()
	if r.err != "" {
		return
	}
	if st.State != "done" {
		r.err = fmt.Sprintf("sweep %s settled %s", st.ID, st.State)
		return
	}
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	for _, row := range st.Table {
		if !want[row.Key] {
			r.err = fmt.Sprintf("sweep %s served unexpected cell key %s", st.ID, row.Key)
			return
		}
		delete(want, row.Key)
		r.cellIDs = append(r.cellIDs, row.JobID)
	}
}

func compact(raw []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return append([]byte(nil), raw...)
	}
	return b.Bytes()
}
