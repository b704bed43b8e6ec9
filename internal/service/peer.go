package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/queue"
	"coordattack/internal/store"
)

// This file is the service side of the static-peer cluster
// (internal/cluster): the peer-protocol HTTP handlers, the compute
// fan-out of fresh results, and the work-stealing machinery.
//
// Results are content-addressed (coordd/v2 keys), so any node can serve
// any node's result byte-for-byte. The consistent-hash ring names a
// replica set per key — the owner plus its distinct successors, Factor
// peers in total; a local miss consults the replicas in ring order
// before running the engine, and every computed body is pushed to all
// of them — a failed push leaves a hint (handoff.go), and the
// anti-entropy loop in replicate.go is the backstop — so any single
// node death loses no cached result.
//
// Stealing moves *pending* jobs from a saturated node (the victim) to
// an idle one (the thief) in one phase: intent, adopt, then follow or
// reclaim. A grant carries each job as the accept record the victim's
// journal keeps (Job.record), and both replay and adoption read it back
// through jobOf. The victim re-stamps the job's journal record as an
// intent naming the thief (fsynced) before the grant leaves, and the
// record stays pending; the thief adopts the job as accepted work,
// journaled when it has a journal. The victim's follower (awaitStolen)
// polls the thief until the result lands, and settling the job then
// tombstones the intent. Ownership moves on an observed result, never
// on a message: no word from the thief could vouch that the job is
// durable there, so the key stays in the victim's WAL until its result
// exists somewhere. A job comes back to the victim by reclaim alone:
// its follower takes it back once the thief provably has no record of
// it, and a grant that hands a node a job its own follower holds is
// taken back there too, so a crash of either node, or both, strands
// nothing and runs no key twice, and no cycle of followers closes.

// maxPeerMsgBytes bounds a steal request body: a count and an address.
const maxPeerMsgBytes = 1 << 20

// handlePeerGetResult serves GET /v1/peer/results/{key}: the bit-exact
// stored body for a settled key, or 404 on a clean miss. Peers use it
// both for owner lookups and for following stolen jobs.
func (s *Server) handlePeerGetResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.IsKey(key) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed result key"})
		return
	}
	body, ok := s.local(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no result for key"})
		return
	}
	if r.Method != http.MethodHead {
		// HEAD probes from the repair loop are existence checks, not
		// served results.
		s.metrics.PeerServed.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// handlePeerPutResult accepts PUT /v1/peer/results/{key}: a peer
// replicating a computed body to this node (the key's ring owner). The
// bytes are stored verbatim — they must stay bit-identical cluster-wide.
func (s *Server) handlePeerPutResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.IsKey(key) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed result key"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, cluster.MaxResultBytes+1))
	if err != nil || len(body) == 0 || len(body) > cluster.MaxResultBytes || !json.Valid(body) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad result body"})
		return
	}
	s.keep(key, body)
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerSteal serves POST /v1/peer/steal: an idle peer asking this
// node to donate pending work.
func (s *Server) handlePeerSteal(w http.ResponseWriter, r *http.Request) {
	var req cluster.StealRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPeerMsgBytes)).Decode(&req); err != nil || req.Want < 1 {
		writeJSON(w, decodeStatus(err), apiError{Error: "bad steal request"})
		return
	}
	writeJSON(w, http.StatusOK, cluster.StealResponse{Jobs: s.stealVictim(req.Want, req.Thief)})
}

// handlePeerKnowsJob serves GET /v1/peer/jobs/{key}: whether this node
// has any record of key — an in-flight job, or a cached/stored result.
// The victim's stolen-job follower uses it to distinguish a thief that
// is still working (or restarted with the job in its WAL) from one that
// never took the job or lost it in a crash.
func (s *Server) handlePeerKnowsJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.IsKey(key) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed result key"})
		return
	}
	s.mu.Lock()
	_, known := s.inflight[key]
	s.mu.Unlock()
	if !known {
		_, known = s.local(key)
	}
	if !known {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown key"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Known bool `json:"known"`
	}{Known: true})
}

// handleAdminCluster serves GET /v1/admin/cluster: ring membership,
// per-peer breaker state, the peer request counters, and the
// replication/repair health summary.
func (s *Server) handleAdminCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "cluster disabled"})
		return
	}
	snap := s.cluster.Snapshot()
	writeJSON(w, http.StatusOK, adminCluster{Snapshot: snap, Replication: s.replicationInfo(snap)})
}

// settlePeerResult finishes j with a body retrieved from a peer —
// served as a cache hit: memoized locally, full trial count, no engine
// run counted — if j is still queued and stolen by thief ("" for a job
// of this node's own queue). A follower whose job a reclaim took back
// leaves it alone: cached is set only while stolen_by names the thief.
func (s *Server) settlePeerResult(j *Job, body json.RawMessage, thief string) {
	s.keep(j.key, body)
	j.mu.Lock()
	mine := j.stolenBy == thief && j.state == StateQueued
	if mine {
		j.cached, j.stolenBy = true, ""
	}
	j.mu.Unlock()
	if !mine {
		return
	}
	j.completed.Store(int64(j.spec.Trials))
	s.settle(j, StateQueued, StateDone, body, "", &s.metrics.PeerHits)
}

// replicateResult pushes a freshly computed body to every replica of
// its key (owner + distinct successors, self excluded), off the worker
// path. A push that fails leaves a hint the failure detector delivers
// the moment the peer answers a probe again — the anti-entropy repair
// loop stays as the backstop, not the primary heal.
func (s *Server) replicateResult(key string, body json.RawMessage) {
	if s.cluster == nil {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for _, addr := range s.cluster.Replicas(key) {
			s.push(context.Background(), addr, key, body)
		}
	}()
}

// stealVictim donates up to want pending jobs to thief, interactive
// jobs first. Each pool keeps Workers pending jobs for its own workers
// and grants only its surplus beyond them — a node never donates work
// its own idle-in-a-moment workers would take next — and the grant is
// empty for a thief outside this node's ring, whose address the
// follower could not dial (a node advertising 0.0.0.0, say): the
// victim would reclaim the jobs while the thief ran them too. Each
// job is granted as its accept record. Donated jobs keep their
// HTTP-visible Job here: the journal record is re-stamped as a steal
// intent naming the thief (fsynced before the grant leaves, like an
// accept before its 202), which stays pending until the job settles
// here or a reclaim re-accepts it, so no crash schedule leaves the job
// in nobody's WAL; and a follower goroutine polls the thief for the
// result.
func (s *Server) stealVictim(want int, thief string) []queue.Record {
	if s.cluster == nil || want < 1 || !slices.Contains(s.cluster.PeerAddrs(), cluster.NormalizeAddr(thief)) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil
	}
	var popped []*queue.Item
	for i := range s.pools {
		sched := s.pools[i].sched
		popped = append(popped, sched.Steal(min(want-len(popped), sched.Depth()-s.cfg.Workers))...)
	}
	var grant []queue.Record
	for _, it := range popped {
		j := it.Payload.(*Job)
		j.mu.Lock()
		terminal := j.state.Terminal()
		if !terminal {
			j.stolenBy = thief
		}
		j.mu.Unlock()
		if terminal {
			// Cancelled while queued; Cancel already settled and
			// tombstoned it. Popping it here just swept it out.
			continue
		}
		grant = append(grant, j.record())
		j.item = nil
		if j.journaled {
			_ = s.journal.Intent(j.key, thief)
		}
		s.metrics.JobsDonated.Add(1)
		s.wg.Add(1)
		go s.awaitStolen(j, thief)
	}
	return grant
}

// awaitStolen is the victim's remote follower for one donated job: it
// polls the thief for the result and settles the local Job when it
// lands. The job stays "queued" (with stolen_by set) while remote, so
// API cancel keeps working through the normal queued-cancel path. The
// follower stops once stolen_by no longer names its thief: a give-back
// reclaimed the job (adoptStolen), and it runs here.
//
// The reclaim rule is the liveness half of the handoff: a
// poll that errors AND a clean miss from a thief with no record of the
// key both count against the poll budget; a thief that answers "I know
// this job" (running it, or restarted with it in its WAL) resets the
// budget. Reclaiming trades the L/U-style residual — a thief that
// revives with the job in its WAL *after* the budget re-runs the key
// once more elsewhere — for never stranding a job; results are content-
// addressed, so the overlap costs compute, never correctness.
func (s *Server) awaitStolen(j *Job, thief string) {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.StealPollInterval)
	defer tick.Stop()
	fails := 0
	for {
		select {
		case <-j.done:
			// Settled through the API (cancel); nothing left to follow.
			return
		case <-j.ctx.Done():
			s.settle(j, StateQueued, StateCancelled, nil, j.ctx.Err().Error())
			return
		case <-tick.C:
		}
		j.mu.Lock()
		following := j.stolenBy == thief
		j.mu.Unlock()
		if !following {
			return
		}
		body, found, err := s.cluster.FetchFrom(j.ctx, thief, j.key)
		if found {
			// The result exists now: settling tombstones the intent.
			s.settlePeerResult(j, body, thief)
			return
		}
		if err == nil {
			// Clean miss: no result yet. Ask whether the thief still has
			// any record of the job before counting the miss against the
			// reclaim budget — a restarted-but-recovering thief (journaled,
			// crashed before running) answers yes and must be waited out,
			// one that never durably took the job answers no.
			if known, kerr := s.cluster.KnowsJob(j.ctx, thief, j.key); kerr == nil && known {
				fails = 0
				continue
			}
		}
		if fails++; fails >= s.cfg.StealPollFailures {
			// Thief presumed to have lost the job: take it back.
			s.reclaim(j)
			return
		}
	}
}

// reclaim takes a donated job back into this node's queue: the
// follower calls it once its thief has presumably lost the job, and
// adoptStolen when a grant hands this node a job it donated. It reports
// false and leaves j alone when j is no longer donated — settled, or
// already reclaimed. The follower and a reclaim never both act on one
// job: whichever clears stolen_by first wins. Disowning the intent
// record makes enqueue re-stamp it as a plain accept (reclaiming must
// survive a crash too), and the job re-enters its own flow past
// MaxDepth — accepted work is never dropped. The state is checked under
// s.mu: a cancel that settles the job after this check does its
// bookkeeping after the enqueue, one that settled it before has already
// done it.
func (s *Server) reclaim(j *Job) bool {
	s.mu.Lock()
	j.mu.Lock()
	donated := j.stolenBy != "" && !j.state.Terminal()
	j.stolenBy = ""
	j.mu.Unlock()
	if !donated {
		s.mu.Unlock()
		return false
	}
	j.journaled = false
	err := s.enqueue(j, time.Now())
	s.mu.Unlock()
	if err != nil {
		// Draining: the job settles cancelled for this process's
		// clients, but its intent record stays pending, so a restart
		// replays the intent and the job still runs somewhere —
		// journal ownership is not discarded on the way down.
		s.settle(j, StateQueued, StateCancelled, nil, "cluster: donated job reclaimed during drain")
		return false
	}
	s.metrics.JobsReclaimed.Add(1)
	return true
}

// adoptStolen admits jobs granted by a victim into this node's own
// queue, registry, and journal as accepted work, each with the
// admission time its record carries, and returns how many entered the
// local queue. Keys already settled locally, or held by a local job
// that is not a steal follower, are skipped — the victim's follower
// finds the body through the results endpoint either way. A key held
// by this node's own steal follower is a job it donated coming back:
// it is reclaimed and runs here, and the node that gave it back follows
// this one, so no cycle of followers can close. Nothing goes back to
// the victim: it keeps its intent record until its follower fetches the
// result, so a thief without a durable journal strands nothing.
func (s *Server) adoptStolen(grant []queue.Record) int {
	adopted := 0
	for _, rec := range grant {
		// Adopt under our own canonical key. On version skew it may
		// differ from the victim's; the victim's follower then falls back
		// to recompute — degraded, never wrong.
		j, accepted, err := s.jobOf(rec)
		if err != nil {
			continue
		}
		if _, ok := s.local(j.key); ok {
			j.cancel()
			continue
		}
		s.mu.Lock()
		held := s.inflight[j.key]
		if held == nil {
			// Replay admission: a steal this node asked for must not
			// bounce off its own MaxDepth.
			err = s.enqueue(j, accepted)
		}
		s.mu.Unlock()
		switch {
		case held != nil:
			j.cancel()
			if s.reclaim(held) {
				adopted++
			}
		case err == nil:
			s.metrics.JobsStolen.Add(1)
			adopted++
		}
	}
	return adopted
}

// stealRound is one round of the work-stealing loop, which New runs
// every Config.StealInterval on every cluster node: when both pools
// have idle workers and empty backlogs, it asks each live peer in turn
// to donate pending work — as many jobs as the busier pool has idle
// workers, since a grant may carry jobs of either class.
func (s *Server) stealRound() {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	free := s.cfg.Workers - int(max(s.pools[0].running.Load(), s.pools[1].running.Load()))
	if draining || free < 1 || s.queued() > 0 {
		return
	}
	for _, peer := range s.cluster.PeerAddrs() {
		if free < 1 {
			break
		}
		if s.cluster.PeerDown(peer) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		jobs, err := s.cluster.StealFrom(ctx, peer, free)
		cancel()
		if err == nil {
			free -= s.adoptStolen(jobs)
		}
	}
}
