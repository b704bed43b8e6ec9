package service

import (
	"context"
	"sort"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/hints"
)

// This file is the anti-entropy repair loop: the background half of
// successor replication. The synchronous half (replicateResult in
// peer.go) pushes every freshly computed body to the key's replica set;
// this loop walks the local durable store and re-pushes any body a
// replica peer turns out not to hold — because a push failed and its
// hint was shed, because the peer restarted with an empty disk, or
// because a membership edit moved the key's replica set. Like the steal
// loop it is idle-paced: one bounded batch of keys per tick, probed
// with cheap HEAD requests, pushing bodies (through push, handoff.go)
// only on a confirmed miss.

// adminCluster is the body of GET /v1/admin/cluster: the cluster
// snapshot (ring membership, breakers, request counters) plus the
// replication health summary. The snapshot is embedded so its fields
// stay top-level — operators and smoke tests read .self and .peers.
type adminCluster struct {
	cluster.Snapshot
	Replication *ReplicationInfo `json:"replication,omitempty"`
}

// ReplicationInfo summarizes this node's replication state for the
// admin endpoint.
type ReplicationInfo struct {
	// LocalKeys is how many results the local durable store holds —
	// the key space the repair loop walks. -1 when no store is
	// configured (nothing durable to repair from).
	LocalKeys int `json:"local_keys"`
	// Pushes and Repairs mirror coordd_replica_pushes_total and
	// coordd_replica_repairs_total; Pushes, like PushFailures, is read
	// off the cluster's replicate request counters.
	Pushes  int64 `json:"pushes"`
	Repairs int64 `json:"repairs"`
	// RepairRuns counts completed repair passes; LastRepairUnix is the
	// wall-clock second the latest one finished (0 before the first).
	RepairRuns     int64 `json:"repair_runs"`
	LastRepairUnix int64 `json:"last_repair_unix,omitempty"`
	// ReadRepairs mirrors coordd_read_repairs_total: bodies pushed back
	// to replicas that a fall-through fetch proved were missing them.
	ReadRepairs int64 `json:"read_repairs"`
	// PushFailures is the per-peer count of replica pushes that failed
	// (each queued a hint), mirroring
	// coordd_replica_push_failures_total{peer}.
	PushFailures map[string]int64 `json:"push_failures,omitempty"`
	// Hints is the hinted-handoff log snapshot: pending/delivered/
	// dropped counts and whether the log degraded to memory-only.
	Hints *hints.Stats `json:"hints,omitempty"`
}

// replicationInfo summarizes replication for the admin endpoint. The
// push counts are read off snap, the cluster snapshot served beside it,
// so the two agree.
func (s *Server) replicationInfo(snap cluster.Snapshot) *ReplicationInfo {
	info := &ReplicationInfo{
		LocalKeys:   -1,
		Repairs:     s.metrics.ReplicaRepairs.Load(),
		ReadRepairs: s.metrics.ReadRepairs.Load(),
	}
	info.Pushes, info.PushFailures = replicaCounts(snap)
	if s.hints != nil {
		hs := s.hints.Stats()
		info.Hints = &hs
	}
	if s.store != nil {
		info.LocalKeys = s.store.Len()
	}
	s.repairMu.Lock()
	info.RepairRuns = s.repairRuns
	if !s.lastRepair.IsZero() {
		info.LastRepairUnix = s.lastRepair.Unix()
	}
	s.repairMu.Unlock()
	return info
}

// repairBudget bounds one repair pass: the repair interval clamped to
// [1s, 10s], so a short interval cannot overlap a stuck pass, a long
// one is not starved by its own budget, and no pass can wedge Drain.
func repairBudget(interval time.Duration) time.Duration {
	return min(max(interval, time.Second), 10*time.Second)
}

// repairPass is one round of the repair loop, which New runs every
// Config.RepairInterval: it probes one batch of local store keys,
// resuming after the previous pass's cursor, and pushes any body a
// replica peer is missing. It returns how many keys were scanned and
// how many bodies were pushed (exposed for tests; the loop ignores
// them).
func (s *Server) repairPass(ctx context.Context) (scanned, repaired int) {
	keys := s.store.Keys()
	if len(keys) > 0 {
		s.repairMu.Lock()
		cur := s.repairCur
		s.repairMu.Unlock()
		// Resume after the cursor; sort.SearchStrings on the sorted key
		// list finds the first key past it, wrapping at the end.
		start := 0
		if cur != "" {
			start = sort.SearchStrings(keys, cur)
			if start < len(keys) && keys[start] == cur {
				start++
			}
		}
		batch := s.cfg.repairBatch
		if batch > len(keys) {
			batch = len(keys)
		}
		for i := 0; i < batch; i++ {
			select {
			case <-ctx.Done():
				return scanned, repaired
			case <-s.stop:
				return scanned, repaired
			default:
			}
			key := keys[(start+i)%len(keys)]
			scanned++
			s.repairMu.Lock()
			s.repairCur = key
			s.repairMu.Unlock()
			repaired += s.repairKey(ctx, key)
		}
	}
	s.repairMu.Lock()
	s.repairRuns++
	s.lastRepair = time.Now()
	s.repairMu.Unlock()
	return scanned, repaired
}

// repairKey probes key's replica peers and pushes the local body to any
// that miss it, returning how many pushes landed; one that fails leaves
// a hint like any other. Probe errors (peer down, breaker open) skip
// the peer — the next pass retries; pushing through an open breaker
// would just burn the probe budget.
func (s *Server) repairKey(ctx context.Context, key string) int {
	pushed := 0
	var body []byte
	for _, addr := range s.cluster.Replicas(key) {
		has, err := s.cluster.HasResult(ctx, addr, key)
		if err != nil || has {
			continue
		}
		if body == nil {
			b, ok := s.local(key)
			if !ok {
				return pushed // evicted since the key list was taken
			}
			body = b
		}
		if s.push(ctx, addr, key, body) {
			pushed++
			s.metrics.ReplicaRepairs.Add(1)
		}
	}
	return pushed
}
