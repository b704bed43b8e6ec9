package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"coordattack/internal/cluster"
	"coordattack/internal/experiments"
	"coordattack/internal/queue"
	"coordattack/internal/store"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs            submit a JobSpec (200 done-from-cache, 202 queued, 413 body past 64 MiB;
//	                           a body past 1 MiB or unsized decodes in the one large-body slot)
//	GET    /v1/jobs            list all jobs
//	GET    /v1/jobs/{id}       poll one job's status/progress/result
//	GET    /v1/jobs/{id}/watch stream NDJSON status lines until terminal
//	DELETE /v1/jobs/{id}       cancel a job (partial result preserved)
//	POST   /v1/sweeps          submit a SweepSpec: base job + axes (202 accepted)
//	GET    /v1/sweeps          list all sweeps
//	GET    /v1/sweeps/{id}     poll a sweep's aggregate tradeoff table
//	GET    /v1/sweeps/{id}/watch stream NDJSON aggregate status until terminal
//	DELETE /v1/sweeps/{id}     cancel a sweep (fans out to unsettled cells)
//	GET    /v1/experiments     list the registered experiment engine ids
//	GET    /v1/peer/results/{key} serve a stored result to a cluster peer
//	PUT    /v1/peer/results/{key} accept a replicated result from a peer
//	POST   /v1/peer/steal      donate pending jobs to an idle peer
//	GET    /v1/peer/jobs/{key} whether this node has any record of a key
//	GET    /v1/peer/ping       failure-detector heartbeat (always 200)
//	GET    /v1/admin/store     durable-store state + quarantine listing
//	POST   /v1/admin/store/rescan re-verify entries, re-admit repaired ones
//	GET    /v1/admin/cluster   ring membership, breaker states, peer counters
//	GET    /healthz            liveness + queue gauges
//	GET    /metrics            Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.oneLarge(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, http.StatusOK, s.Jobs()) })
	mux.HandleFunc("GET /v1/jobs/{id}", byID(s.Get))
	mux.HandleFunc("GET /v1/jobs/{id}/watch", watch(s, s.job))
	mux.HandleFunc("DELETE /v1/jobs/{id}", byID(s.Cancel))
	mux.HandleFunc("POST /v1/sweeps", s.oneLarge(s.handleSubmitSweep))
	mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, http.StatusOK, s.Sweeps()) })
	mux.HandleFunc("GET /v1/sweeps/{id}", byID(s.GetSweep))
	mux.HandleFunc("GET /v1/sweeps/{id}/watch", watch(s, s.sweep))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", byID(s.CancelSweep))
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/peer/results/{key}", s.handlePeerGetResult)
	mux.HandleFunc("PUT /v1/peer/results/{key}", s.handlePeerPutResult)
	mux.HandleFunc("POST /v1/peer/steal", s.handlePeerSteal)
	mux.HandleFunc("GET /v1/peer/jobs/{key}", s.handlePeerKnowsJob)
	mux.HandleFunc("GET /v1/peer/ping", s.handlePeerPing)
	mux.HandleFunc("GET /v1/admin/store", s.handleAdminStore)
	mux.HandleFunc("POST /v1/admin/store/rescan", s.handleAdminStoreRescan)
	mux.HandleFunc("GET /v1/admin/cluster", s.handleAdminCluster)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

type apiError struct {
	Error string `json:"error"`
}

// overloadError is the structured body of a 429: it tells the client
// not just that it was shed but when to come back and how deep the
// backlog is, mirroring the Retry-After header. QueueDepth counts every
// pending job; QueueCapacity is the per-class bound, Config.QueueDepth.
type overloadError struct {
	Error         string `json:"error"`
	RetryAfterSec int    `json:"retry_after_sec"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
}

// writeOverload answers a queue-full rejection with a Retry-After
// header derived from the rejected class's queue depth and observed
// mean job duration, plus the structured JSON body.
func (s *Server) writeOverload(w http.ResponseWriter, err error, class queue.Class) {
	secs, depth, capacity := s.retryAfter(class)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, overloadError{
		Error:         err.Error(),
		RetryAfterSec: secs,
		QueueDepth:    depth,
		QueueCapacity: capacity,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxBodyBytes bounds a job or sweep submission body. The largest spec
// coordd serves is a custom: run at the maxRunCost limit, at most 48 MiB
// of text (DESIGN §8), so 64 MiB admits it with room to spare.
const maxBodyBytes = 64 << 20

// largeBodyBytes is the declared size past which a submission body is
// decoded in the one large-body slot (oneLarge). Every spec short of a
// big custom: run fits well under it.
const largeBodyBytes = 1 << 20

// oneLarge runs a submission handler, decode and admission both, in the
// server's one large-body slot when the body is unsized or declares
// more than largeBodyBytes: decoding materializes a body at several
// times its size, so such bodies decode one at a time. A small body
// with a declared length never waits. A request waiting for the slot
// leaves when its client does.
func (s *Server) oneLarge(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength < 0 || r.ContentLength > largeBodyBytes {
			select {
			case s.largeSlot <- struct{}{}:
				defer func() { <-s.largeSlot }()
			case <-r.Context().Done():
				return
			}
		}
		h(w, r)
	}
}

// decode reads a POST body of at most maxBodyBytes into spec, rejecting
// unknown fields rather than ignoring them: a typoed field name would
// otherwise silently canonicalize to a different job. A body that does
// not decode answers 400 naming the kind of spec, one that runs past the
// bound 413, and decode reports false. A body whose Content-Length
// already declares it past the bound gets its 413 before any of it is
// read.
func decode(w http.ResponseWriter, r *http.Request, kind string, spec any) bool {
	if r.ContentLength > maxBodyBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: fmt.Sprintf("decoding %s spec: body of %d bytes exceeds %d", kind, r.ContentLength, maxBodyBytes)})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		writeJSON(w, decodeStatus(err), apiError{Error: fmt.Sprintf("decoding %s spec: %v", kind, err)})
		return false
	}
	return true
}

// decodeStatus is the status a body that failed to decode answers: 413
// when it ran past its http.MaxBytesReader bound, 400 otherwise.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// submitted answers a job or sweep submission: code with st when err is
// nil, 429 with Retry-After for class on a full queue, 503 while
// draining, and 400 for a spec that does not canonicalize.
func (s *Server) submitted(w http.ResponseWriter, code int, st any, err error, class queue.Class) {
	switch {
	case err == nil:
		writeJSON(w, code, st)
	case errors.Is(err, ErrQueueFull):
		s.writeOverload(w, err, class)
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decode(w, r, "job", &spec) {
		return
	}
	st, err := s.Submit(spec)
	code := http.StatusAccepted
	if err == nil && st.State == StateDone {
		code = http.StatusOK
	}
	s.submitted(w, code, st, err, queue.ClassInteractive)
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if !decode(w, r, "sweep", &spec) {
		return
	}
	st, err := s.SubmitSweep(spec)
	s.submitted(w, http.StatusAccepted, st, err, queue.ClassSweep)
}

// notFound is the one reply for a job or sweep id that is unknown or
// evicted.
func notFound(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
}

// byID serves a GET or DELETE of one job or sweep: fn's status for the
// path's id. Cancelling is idempotent: a settled job or sweep answers
// its terminal status.
func byID[S any](fn func(id string) (S, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st, err := fn(r.PathValue("id"))
		if err != nil {
			notFound(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
}

// watched is a job or a sweep as a /watch stream sees it: its entry,
// whose done channel closes when it settles, and its current status
// with whether that status is terminal.
type watched interface {
	registered
	snapshot() (any, bool)
}

func (j *Job) snapshot() (any, bool) {
	st := j.status()
	return st, st.State.Terminal()
}

func (sw *Sweep) snapshot() (any, bool) {
	st := sw.status()
	return st, st.State.Terminal()
}

// watch serves GET .../{id}/watch for jobs and sweeps: the status as
// NDJSON — one compact JSON object per line, roughly 10 Hz while it
// runs, ending with the terminal line — so clients get live trial
// counts, CI widths and sweep tables without polling. A client that
// cannot keep up at 10 Hz gets coalesced snapshots: intermediate states
// are skipped, so every line it does receive is the latest state at
// write time (see streamNDJSON). Sweep tables are the biggest lines the
// daemon writes, so skipping stale ones matters most there.
func watch[T watched](s *Server, find func(id string) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := find(r.PathValue("id"))
		if err != nil {
			notFound(w, err)
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			writeJSON(w, http.StatusNotImplemented, apiError{Error: "streaming unsupported"})
			return
		}
		streamNDJSON(w, flusher, r.Context().Done(), v.base().done, &s.metrics.WatchCoalesced, v.snapshot)
	}
}

// adminStore is the body of GET /v1/admin/store: the operator's view of
// the durable tiers — the result store (degraded or not, how big, what
// is sitting in quarantine awaiting repair or post-mortem) and, when
// configured, the pending-queue journal's health.
type adminStore struct {
	Degraded   bool                    `json:"degraded"`
	Entries    int                     `json:"entries"`
	Bytes      int64                   `json:"bytes"`
	Recoveries int64                   `json:"recoveries"`
	Quarantine []store.QuarantineEntry `json:"quarantine"`
	// Journal is the pending-queue journal snapshot, absent when no
	// journal is configured.
	Journal *queue.JournalStats `json:"journal,omitempty"`
}

func (s *Server) handleAdminStore(w http.ResponseWriter, r *http.Request) {
	if s.store == nil && s.journal == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "store disabled"})
		return
	}
	body := adminStore{Quarantine: []store.QuarantineEntry{}}
	if s.store != nil {
		st := s.store.Stats()
		body.Degraded = st.Degraded
		body.Entries = st.Entries
		body.Bytes = st.Bytes
		body.Recoveries = st.Recoveries
		if q := s.store.Quarantine(); q != nil {
			body.Quarantine = q
		}
	}
	if s.journal != nil {
		js := s.journal.Stats()
		body.Journal = &js
	}
	writeJSON(w, http.StatusOK, body)
}

// handleAdminStoreRescan runs the store maintenance pass: probe the
// write path (possibly un-degrading), re-verify every entry, re-admit
// quarantine files that verify again. Safe to call on a healthy store.
func (s *Server) handleAdminStoreRescan(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "store disabled"})
		return
	}
	writeJSON(w, http.StatusOK, s.store.Rescan())
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Experiments []string `json:"experiments"`
	}{Experiments: experiments.IDs()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g := s.gauges()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	storeState := "off"
	if g.StoreEnabled {
		storeState = "ok"
		if g.Store.Degraded {
			storeState = "degraded"
		}
	}
	journalState := "off"
	if g.JournalEnabled {
		journalState = "ok"
		if g.Journal.Degraded {
			journalState = "degraded"
		}
	}
	// clusterState is "degraded" while any peer's breaker is open — the
	// node still serves everything, at local-compute cost for that
	// peer's arcs.
	clusterState := "off"
	var peers map[string]string
	var peerHealth map[string]string
	if g.ClusterEnabled {
		clusterState = "ok"
		peers = make(map[string]string, len(g.Cluster.Peers))
		for _, p := range g.Cluster.Peers {
			peers[p.Addr] = string(p.Breaker)
			if p.Breaker == cluster.StateOpen {
				clusterState = "degraded"
			}
			if p.Health != "" {
				if peerHealth == nil {
					peerHealth = make(map[string]string, len(g.Cluster.Peers))
				}
				peerHealth[p.Addr] = p.Health
				if p.Health == cluster.HealthDead {
					clusterState = "degraded"
				}
			}
		}
	}
	hintsState := "off"
	if g.HintsEnabled {
		hintsState = "ok"
		if g.Hints.Degraded {
			hintsState = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Status      string         `json:"status"`
		JobsQueued  int            `json:"jobs_queued"`
		Queue       map[string]int `json:"queue"`
		JobsRunning int            `json:"jobs_running"`
		Draining    bool           `json:"draining"`
		Store       string         `json:"store"`
		Journal     string         `json:"journal"`
		Cluster     string         `json:"cluster"`
		// Peers maps each peer to its breaker state ("closed"/"open"/
		// "half-open"); PeerHealth maps those the failure detector has
		// probed to alive/suspect/dead.
		Peers      map[string]string `json:"peers,omitempty"`
		PeerHealth map[string]string `json:"peer_health,omitempty"`
		// Hints is the hinted-handoff log state ("off"/"ok"/"degraded");
		// HintsPending is its queued-hint count.
		Hints        string `json:"hints"`
		HintsPending int    `json:"hints_pending,omitempty"`
	}{
		Status:     "ok",
		JobsQueued: g.JobsQueued,
		Queue: map[string]int{
			"interactive": g.QueueInteractive,
			"sweep":       g.QueueSweep,
		},
		JobsRunning:  g.JobsRunning,
		Draining:     draining,
		Store:        storeState,
		Journal:      journalState,
		Cluster:      clusterState,
		Peers:        peers,
		PeerHealth:   peerHealth,
		Hints:        hintsState,
		HintsPending: g.Hints.Pending,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w, s.gauges())
}
