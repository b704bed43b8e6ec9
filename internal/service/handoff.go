package service

import (
	"context"
	"encoding/json"
	"net/http"
)

// This file is the cluster's active-healing layer: the one replica
// write (push), fetch-path read-repair, and hinted-handoff delivery,
// which the peer failure detector (internal/cluster/detector.go)
// started in New triggers.
//
// The division of labor with the anti-entropy repair loop
// (replicate.go): repair is the slow, complete backstop that eventually
// walks every local key; read-repair and hints are the fast paths that
// heal the specific gaps the node just observed — a fetch that fell
// through part of the replica set, a push that bounced off a dead peer
// — the moment the information exists, instead of an interval later.
// All of them, and the compute fan-out (replicateResult), write through
// push, so a lost push is made good the same way whoever sent it.

// readRepairBudget bounds concurrently in-flight read-repair
// goroutines. The budget is a skip gate, not a queue: a fetch storm
// past the budget just leaves those keys to the repair loop.
const readRepairBudget = 4

// handlePeerPing serves GET /v1/peer/ping, the failure detector's
// heartbeat target. Deliberately minimal: it answers as soon as the
// HTTP stack is serving, independent of queue depth or store health —
// liveness ("the process answers") is exactly what the detector is
// measuring, breakers and /healthz cover the rest.
func (s *Server) handlePeerPing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Ok bool `json:"ok"`
	}{Ok: true})
}

// push is the one replica write: it PUTs body to the replica addr and,
// when that fails, queues the (addr, key) hint the failure detector
// delivers once addr answers a ping again. The body stays in the local
// tiers, so the hint carries only the pair. It reports whether the push
// landed; the cluster's replicate request counters are its only count.
// Called only on clustered servers, which always have a hint log.
func (s *Server) push(ctx context.Context, addr, key string, body json.RawMessage) bool {
	if s.cluster.PushTo(ctx, addr, key, body) != nil {
		// An Add that cannot append still queues the hint in memory (the
		// log demotes itself), so its error changes nothing here.
		_ = s.hints.Add(addr, key)
		return false
	}
	return true
}

// readRepair pushes a body recovered from peer `source` back to every
// replica-set member that provably missed it: every set member before
// source in ring order was consulted and answered miss or error, and
// this node itself missed locally. Runs off the request path under the
// in-flight budget; a full budget skips (the repair loop is the
// backstop).
func (s *Server) readRepair(key string, body json.RawMessage, source string) {
	if s.cluster == nil || source == "" {
		return
	}
	select {
	case s.rrSem <- struct{}{}:
	default:
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.rrSem
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		defer func() { <-s.rrSem }()
		for _, addr := range s.cluster.Replicas(key) {
			if addr == source {
				// The serving peer holds the body by definition; replicas
				// after it in ring order were never consulted, but probing
				// them is cheap and closes their gap too.
				continue
			}
			has, err := s.cluster.HasResult(context.Background(), addr, key)
			if err != nil {
				// Unreachable replica: leave a hint, same as a failed push.
				_ = s.hints.Add(addr, key)
				continue
			}
			if !has && s.push(context.Background(), addr, key, body) {
				s.metrics.ReadRepairs.Add(1)
			}
		}
	}()
}

// onPeerAlive is the failure detector's OnAlive callback: every
// successful ping of a peer with pending hints triggers a delivery
// drain for that peer (the dead→alive transition is the interesting
// case, but hints queued against a peer the detector never saw die —
// a transient refusal — drain on the next probe too). One drain per
// peer runs at a time; delivery is idempotent so an overlap would be
// harmless, the latch just keeps it tidy.
func (s *Server) onPeerAlive(addr string, becameAlive bool) {
	if s.hints == nil || s.hints.PendingFor(addr) == 0 {
		return
	}
	s.hintMu.Lock()
	if s.hintActive[addr] {
		s.hintMu.Unlock()
		return
	}
	s.hintActive[addr] = true
	s.hintMu.Unlock()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.hintMu.Lock()
		delete(s.hintActive, addr)
		s.hintMu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		defer func() {
			s.hintMu.Lock()
			delete(s.hintActive, addr)
			s.hintMu.Unlock()
		}()
		s.deliverHints(addr)
	}()
}

// deliverHints drains addr's hint queue, oldest first: for each hinted
// key the body is re-read from the local tiers and pushed. A push
// failure aborts the drain (the peer flapped; the next successful ping
// retries), a missing local body clears the hint (nothing to deliver —
// the key was GC'd or quarantined; repair would find the same nothing).
// Delivery is idempotent end to end: the receiving handler stores
// verbatim bytes under a content-addressed key, so a duplicate PUT
// rewrites the identical body and runs no engine.
func (s *Server) deliverHints(addr string) {
	for _, key := range s.hints.Pending(addr) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
		body, ok := s.local(key)
		if ok && !s.push(context.Background(), addr, key, body) {
			return
		}
		_ = s.hints.Delivered(addr, key)
	}
}
