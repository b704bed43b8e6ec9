package chaos

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/hints"
	"coordattack/internal/mc"
	"coordattack/internal/queue"
	"coordattack/internal/service"
	"coordattack/internal/store"
)

// clusterRunLedger counts successful engine runs per seed across every
// node and every restart in the soak — the cluster-wide exactly-once
// ledger. Every seed is submitted to exactly one node, so each must
// complete exactly one engine run no matter which nodes die.
type clusterRunLedger struct {
	mu   sync.Mutex
	runs map[uint64]int
}

func (l *clusterRunLedger) add(seed uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.runs == nil {
		l.runs = make(map[uint64]int)
	}
	l.runs[seed]++
}

func (l *clusterRunLedger) count(seed uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.runs[seed]
}

// chaosSwap lets one fixed listener outlive daemon "kills": set(nil)
// answers 503 exactly like a dead process behind a live load-balancer
// address, so peers see errors, breakers open, and the ring address
// stays stable across restarts.
type chaosSwap struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *chaosSwap) set(h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h = h
}

func (s *chaosSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// soakClusterNode is one member of the chaos cluster: fixed address,
// persistent store and queue directories, and a current daemon
// incarnation that kill/boot replaces.
type soakClusterNode struct {
	t        *testing.T
	name     string
	sh       *chaosSwap
	addr     string
	storeDir string
	queueDir string
	hintDir  string   // non-empty: boot opens a durable hinted-handoff log here
	factor   int      // replication factor; 0 = the cluster default
	severed  []string // hosts the next boot's PeerNet starts severed from
	ledger   *clusterRunLedger

	s        *service.Server
	jl       *queue.Journal
	st       *store.Store
	hl       *hints.Log
	cl       *cluster.Cluster
	net      *PeerNet
	gate     chan struct{}
	gateOnce *sync.Once
}

// boot starts a daemon incarnation over the node's directories. Seeds
// listed in gateSeeds have their engine runs held on the node's gate
// channel until openGate (or job cancellation), pinning jobs mid-run so
// kills land at chosen points.
func (n *soakClusterNode) boot(peers []string, cfg service.Config, plan NetPlan, gateSeeds ...uint64) {
	n.t.Helper()
	jl, err := queue.OpenJournal(n.queueDir, queue.JournalOptions{Logf: n.t.Logf})
	if err != nil {
		n.t.Fatalf("%s: open journal: %v", n.name, err)
	}
	st, err := store.Open(n.storeDir, store.Options{Logf: n.t.Logf})
	if err != nil {
		n.t.Fatalf("%s: open store: %v", n.name, err)
	}
	pn, err := NewPeerNet(nil, plan)
	if err != nil {
		n.t.Fatalf("%s: peer net: %v", n.name, err)
	}
	// Sever before service.New: its failure detector pings every peer one
	// probe interval later, and could deliver hints before a later Sever
	// landed.
	for _, host := range n.severed {
		pn.Sever(host)
	}
	cl, err := cluster.New(cluster.Options{
		Self:             n.addr,
		Peers:            peers,
		Factor:           n.factor,
		Timeout:          400 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  150 * time.Millisecond,
		Transport:        pn,
		Logf:             n.t.Logf,
	})
	if err != nil {
		n.t.Fatalf("%s: cluster: %v", n.name, err)
	}
	if n.hintDir != "" {
		hl, err := hints.Open(n.hintDir, hints.Options{Logf: n.t.Logf})
		if err != nil {
			n.t.Fatalf("%s: open hints: %v", n.name, err)
		}
		n.hl = hl
		cfg.Hints = hl
	}
	gate := make(chan struct{})
	gated := make(map[uint64]bool, len(gateSeeds))
	for _, seed := range gateSeeds {
		gated[seed] = true
	}
	ledger := n.ledger
	cfg.Journal = jl
	cfg.Store = st
	cfg.Cluster = cl
	cfg.WatchdogInterval = -1
	if cfg.StealInterval == 0 {
		cfg.StealInterval = -1
	}
	if cfg.StealPollInterval == 0 {
		cfg.StealPollInterval = 25 * time.Millisecond
	}
	if cfg.StealPollFailures == 0 {
		// Generous: reclaim-after-lost-thief has its own deterministic
		// crash-schedule test; here a false reclaim during a short thief
		// restart would break the exactly-once ledger.
		cfg.StealPollFailures = 200
	}
	if cfg.RepairInterval == 0 {
		cfg.RepairInterval = 100 * time.Millisecond
	}
	cfg.WrapEngine = func(engine string, next service.RunFunc) service.RunFunc {
		return func(ctx context.Context, spec service.JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
			if gated[spec.Seed] {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			body, err := next(ctx, spec, workers, progress)
			if err == nil {
				ledger.add(spec.Seed)
			}
			return body, err
		}
	}
	n.jl, n.st, n.cl, n.net = jl, st, cl, pn
	n.gate, n.gateOnce = gate, new(sync.Once)
	n.s = service.New(cfg)
	n.sh.set(n.s.Handler())

	s, once, hl := n.s, n.gateOnce, n.hl
	n.t.Cleanup(func() {
		once.Do(func() { close(gate) })
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		jl.Close()
		st.Close()
		if hl != nil {
			hl.Close()
		}
	})
}

func (n *soakClusterNode) openGate() { n.gateOnce.Do(func() { close(n.gate) }) }

// kill is SIGKILL fidelity: the journal degrades first (post-kill
// settles cannot reach disk), the listener answers 503, and the old
// incarnation is abandoned with a cancelled drain.
func (n *soakClusterNode) kill() {
	n.jl.Close()
	if n.hl != nil {
		n.hl.Close()
	}
	n.sh.set(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = n.s.Drain(ctx)
}

// served reports whether addr's peer endpoint holds key's body.
func served(addr, key string) bool {
	resp, err := http.Get(addr + cluster.ResultsPathPrefix + key)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func soakWait(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(15 * time.Millisecond)
	}
}

// requestCount sums a cluster's peer-request cells for one op and
// outcome across its peers — where replica pushes (replicate/ok) are
// counted.
func requestCount(cl *cluster.Cluster, op, outcome string) int64 {
	var n int64
	for _, r := range cl.Snapshot().Requests {
		if r.Op == op && r.Outcome == outcome {
			n += r.Count
		}
	}
	return n
}

// breakerStateOn reads node addr's admin view of peer's breaker.
func breakerStateOn(t *testing.T, addr, peer string) string {
	t.Helper()
	resp, err := http.Get(addr + "/v1/admin/cluster")
	if err != nil {
		return "unreachable"
	}
	defer resp.Body.Close()
	var adm struct {
		Peers []cluster.PeerInfo `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&adm); err != nil {
		return "undecodable"
	}
	for _, p := range adm.Peers {
		if p.Addr == peer {
			return p.Breaker
		}
	}
	return "absent"
}

// TestSoakClusterKillRestartConvergence is the cluster chaos soak: a
// 3-node, replication-factor-2 cluster rides fault-injected peer
// transports (deterministic drops and delays) while the harness kills
// and restarts nodes at the two points the replication and steal
// protocols are most exposed, asserting after each:
//
//   - zero previously-settled result loss: every key that had converged
//     to its replica set stays servable by the survivors while any
//     single node is down, and a node restarted over a wiped store is
//     re-populated by the anti-entropy repair loop;
//   - exactly-once settlement cluster-wide: every submitted seed
//     completes exactly one successful engine run across all nodes and
//     all restarts, including seeds mid-steal-handoff when the thief or
//     the victim dies;
//   - breakers recover: survivors open their breaker toward a dead
//     peer and return to closed after it comes back.
func TestSoakClusterKillRestartConvergence(t *testing.T) {
	ledger := &clusterRunLedger{}
	nodes := make([]*soakClusterNode, 3)
	peers := make([]string, 3)
	for i, name := range []string{"A", "B", "C"} {
		sh := &chaosSwap{}
		srv := httptest.NewServer(sh)
		t.Cleanup(srv.Close)
		base := t.TempDir()
		nodes[i] = &soakClusterNode{
			t:        t,
			name:     name,
			sh:       sh,
			addr:     srv.URL,
			storeDir: base + "/store",
			queueDir: base + "/queue",
			ledger:   ledger,
		}
		peers[i] = srv.URL
	}
	a, b, c := nodes[0], nodes[1], nodes[2]
	// Per-node fault plans: every peer request may be dropped or delayed
	// on a seed-deterministic schedule. Drops degrade fetches to local
	// compute and pushes to repair work — never correctness.
	noise := func(seed uint64) NetPlan {
		return NetPlan{Seed: seed, PDrop: 0.04, PDelay: 0.15, DelayFor: time.Millisecond}
	}
	// Delay-only: steal phases assert an exact run ledger, and a dropped
	// poll burst could legitimately trigger reclaim (at-least-once by
	// design); drops get their coverage in the replication phases.
	calm := func(seed uint64) NetPlan {
		return NetPlan{Seed: seed, PDelay: 0.15, DelayFor: time.Millisecond}
	}
	for i, n := range nodes {
		n.boot(peers, service.Config{Workers: 2}, noise(uint64(100+i)))
	}

	keys := make(map[uint64]string) // seed → canonical key
	submitTo := func(n *soakClusterNode, seed uint64) *service.Status {
		st, err := n.s.Submit(soakSpec(seed))
		if err != nil {
			t.Fatalf("submit seed %d to %s: %v", seed, n.name, err)
		}
		keys[seed] = st.Key
		return st
	}
	holders := func(key string) int {
		count := 0
		for _, n := range nodes {
			if served(n.addr, key) {
				count++
			}
		}
		return count
	}
	converged := func(seeds []uint64) func() bool {
		return func() bool {
			for _, seed := range seeds {
				if holders(keys[seed]) < 2 {
					return false
				}
			}
			return true
		}
	}
	allDoneOn := func(n *soakClusterNode, ids []string) func() bool {
		return func() bool {
			for _, id := range ids {
				st, err := n.s.Get(id)
				if err != nil || st.State != service.StateDone {
					return false
				}
			}
			return true
		}
	}

	// ── Phase 1: load under transport noise, converge to factor 2. ──
	var phase1 []uint64
	var phase1IDs [3][]string
	for seed := uint64(101); seed <= 112; seed++ {
		i := int(seed) % 3
		st := submitTo(nodes[i], seed)
		phase1 = append(phase1, seed)
		phase1IDs[i] = append(phase1IDs[i], st.ID)
	}
	for i, n := range nodes {
		soakWait(t, "phase-1 settlement on "+n.name, 30*time.Second, allDoneOn(n, phase1IDs[i]))
	}
	soakWait(t, "phase-1 replica convergence", 30*time.Second, converged(phase1))
	for _, seed := range phase1 {
		if got := ledger.count(seed); got != 1 {
			t.Fatalf("seed %d ran %d times in phase 1, want 1", seed, got)
		}
	}
	var pushes int64
	for _, n := range nodes {
		pushes += requestCount(n.cl, "replicate", "ok")
	}
	if pushes == 0 {
		t.Fatal("no replica pushes recorded during phase 1")
	}

	// ── Phase 2a: kill C mid-replication. ──
	// A fresh batch settles on C and C dies immediately: its last pushes
	// may still be in flight. Every *converged* key must stay servable
	// by the survivors; the fresh batch re-replicates after restart.
	var phase2 []uint64
	var phase2IDs []string
	for seed := uint64(201); seed <= 204; seed++ {
		phase2 = append(phase2, seed)
		phase2IDs = append(phase2IDs, submitTo(c, seed).ID)
	}
	soakWait(t, "phase-2 settlement on C", 30*time.Second, allDoneOn(c, phase2IDs))
	c.kill()
	for _, seed := range phase1 {
		if !served(a.addr, keys[seed]) && !served(b.addr, keys[seed]) {
			t.Fatalf("converged key for seed %d lost to the survivors while C is down", seed)
		}
	}
	// Survivors open their breaker toward the corpse (repair probes keep
	// hitting the 503), and close it again after the restart below.
	soakWait(t, "breaker on A toward dead C to open", 20*time.Second, func() bool {
		return breakerStateOn(t, a.addr, cluster.NormalizeAddr(c.addr)) == cluster.StateOpen
	})
	c.boot(peers, service.Config{Workers: 2}, noise(120))
	soakWait(t, "phase-2 replica convergence after C restart", 30*time.Second, converged(append(append([]uint64(nil), phase1...), phase2...)))
	soakWait(t, "breaker on A toward revived C to close", 20*time.Second, func() bool {
		return breakerStateOn(t, a.addr, cluster.NormalizeAddr(c.addr)) == cluster.StateClosed
	})

	// ── Phase 2b: C loses its disk. ──
	// Kill C again, wipe its store, restart empty: anti-entropy repair
	// on the holders must re-push every key whose replica set includes
	// C until C serves them all again.
	c.kill()
	if err := os.RemoveAll(c.storeDir); err != nil {
		t.Fatal(err)
	}
	c.boot(peers, service.Config{Workers: 2}, noise(121))
	cAddr := cluster.NormalizeAddr(c.addr)
	var cOwned []uint64
	for _, seed := range append(append([]uint64(nil), phase1...), phase2...) {
		for _, member := range c.cl.ReplicaSet(keys[seed]) {
			if member == cAddr {
				cOwned = append(cOwned, seed)
			}
		}
	}
	if len(cOwned) == 0 {
		t.Fatal("replica placement gave C no keys — soak cannot exercise repair")
	}
	soakWait(t, "repair to re-populate C's wiped store", 30*time.Second, func() bool {
		for _, seed := range cOwned {
			if !served(c.addr, keys[seed]) {
				return false
			}
		}
		return true
	})

	// ── Phase 3: the thief dies mid-steal. ──
	// A's single worker is pinned by a gated blocker, B steals one of
	// the two queued jobs and journals it, then B dies with the stolen
	// job un-run. B's restart must replay its WAL and run the job
	// exactly once; A settles it through the stolen-job follower.
	a.kill()
	a.boot(peers, service.Config{Workers: 1}, calm(130), 301)
	b.kill()
	b.boot(peers, service.Config{Workers: 2, StealInterval: 40 * time.Millisecond}, calm(131), 302, 303)
	blocker := submitTo(a, 301)
	soakWait(t, "phase-3 blocker to occupy A's worker", 20*time.Second, func() bool {
		st, err := a.s.Get(blocker.ID)
		return err == nil && st.State == service.StateRunning
	})
	ids3 := []string{blocker.ID, submitTo(a, 302).ID, submitTo(a, 303).ID}
	soakWait(t, "B to steal one job", 20*time.Second, func() bool {
		return b.s.Metrics().JobsStolen.Load() >= 1
	})
	b.kill()
	b.boot(peers, service.Config{Workers: 2}, calm(132))
	if got := b.s.Metrics().QueueReplayed.Load(); got < 1 {
		t.Fatalf("B replayed %d jobs after dying mid-steal, want the stolen job back", got)
	}
	a.openGate()
	soakWait(t, "phase-3 jobs to settle on A", 30*time.Second, allDoneOn(a, ids3))
	for seed := uint64(301); seed <= 303; seed++ {
		if got := ledger.count(seed); got != 1 {
			t.Fatalf("seed %d ran %d times across the thief crash, want exactly 1", seed, got)
		}
	}

	// ── Phase 4: the victim dies mid-steal. ──
	// Same saturation, but A dies after B journals the steal. A's intent
	// record is still pending, so its restart replays the blocker, the
	// un-stolen job and the intent, whose follower settles the stolen
	// job from B's result as a peer hit, while B alone runs it.
	a.kill()
	a.boot(peers, service.Config{Workers: 1}, calm(140), 401)
	b.kill()
	b.boot(peers, service.Config{Workers: 2, StealInterval: 40 * time.Millisecond}, calm(141), 402, 403)
	blocker4 := submitTo(a, 401)
	soakWait(t, "phase-4 blocker to occupy A's worker", 20*time.Second, func() bool {
		st, err := a.s.Get(blocker4.ID)
		return err == nil && st.State == service.StateRunning
	})
	submitTo(a, 402)
	submitTo(a, 403)
	soakWait(t, "B to steal one phase-4 job", 20*time.Second, func() bool {
		return b.s.Metrics().JobsStolen.Load() >= 1
	})
	a.kill()
	b.openGate()
	a.boot(peers, service.Config{Workers: 2}, calm(142))
	if got := a.s.Metrics().QueueReplayed.Load(); got != 3 {
		t.Fatalf("A replayed %d jobs after dying as steal victim, want 3 (blocker, un-stolen and the pending intent)", got)
	}
	soakWait(t, "phase-4 replayed jobs to settle on A", 30*time.Second, func() bool {
		jobs := a.s.Jobs()
		if len(jobs) != 3 {
			return false
		}
		for _, st := range jobs {
			if st.State != service.StateDone {
				return false
			}
		}
		return true
	})
	if hits, reclaimed := a.s.Metrics().PeerHits.Load(), a.s.Metrics().JobsReclaimed.Load(); hits != 1 || reclaimed != 0 {
		t.Fatalf("A settled the phase-4 replay with %d peer hits and %d reclaims, want the stolen job as 1 peer hit and 0 reclaims", hits, reclaimed)
	}
	soakWait(t, "phase-4 stolen job to settle on B", 30*time.Second, func() bool {
		for seed := uint64(401); seed <= 403; seed++ {
			if holders(keys[seed]) < 1 {
				return false
			}
		}
		return true
	})
	for seed := uint64(401); seed <= 403; seed++ {
		if got := ledger.count(seed); got != 1 {
			t.Fatalf("seed %d ran %d times across the victim crash, want exactly 1", seed, got)
		}
	}

	// ── Final convergence: every key ever settled is on ≥ 2 nodes and
	// every breaker everywhere has recovered to closed. ──
	var all []uint64
	for seed := range keys {
		all = append(all, seed)
	}
	soakWait(t, "full-cluster replica convergence", 45*time.Second, converged(all))
	soakWait(t, "all breakers to recover", 20*time.Second, func() bool {
		for _, n := range nodes {
			for _, p := range nodes {
				if p == n {
					continue
				}
				if breakerStateOn(t, n.addr, cluster.NormalizeAddr(p.addr)) != cluster.StateClosed {
					return false
				}
			}
		}
		return true
	})
	for seed, count := range map[uint64]int(func() map[uint64]int {
		ledger.mu.Lock()
		defer ledger.mu.Unlock()
		out := make(map[uint64]int, len(ledger.runs))
		for s, n := range ledger.runs {
			out[s] = n
		}
		return out
	}()) {
		if count != 1 {
			t.Fatalf("seed %d ran %d times over the whole soak, want exactly 1", seed, count)
		}
		if _, ok := keys[seed]; !ok {
			t.Fatalf("engine ran unsubmitted seed %d", seed)
		}
	}
}

// repairRunsOn reads node addr's admin count of completed anti-entropy
// passes.
func repairRunsOn(t *testing.T, addr string) int64 {
	t.Helper()
	resp, err := http.Get(addr + "/v1/admin/cluster")
	if err != nil {
		t.Fatalf("admin on %s: %v", addr, err)
	}
	defer resp.Body.Close()
	var adm struct {
		Replication struct {
			RepairRuns int64 `json:"repair_runs"`
		} `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&adm); err != nil {
		t.Fatalf("admin on %s: %v", addr, err)
	}
	return adm.Replication.RepairRuns
}

// TestSoakClusterHintedHandoff proves hinted handoff alone — anti-
// entropy repair disabled on every node — heals a replica severed for
// an entire load phase:
//
//   - a 3-node, factor-3 cluster partitions node C away from A and B,
//     then A and B each settle 25 keys: every replica push toward C
//     bounces and must queue exactly one durable hint per key;
//   - A is SIGKILL'd and rebooted mid-outage: its hint log must replay
//     from disk with nothing lost;
//   - the partition heals: the failure detector's next successful ping
//     drains both hint queues until C serves all 50 bodies, having run
//     zero engines and zero repair passes anywhere;
//   - delivery is idempotent at the wire: re-delivering a body C
//     already holds changes nothing and still runs no engine.
func TestSoakClusterHintedHandoff(t *testing.T) {
	ledger := &clusterRunLedger{}
	nodes := make([]*soakClusterNode, 3)
	peers := make([]string, 3)
	for i, name := range []string{"A", "B", "C"} {
		sh := &chaosSwap{}
		srv := httptest.NewServer(sh)
		t.Cleanup(srv.Close)
		base := t.TempDir()
		nodes[i] = &soakClusterNode{
			t:        t,
			name:     name,
			sh:       sh,
			addr:     srv.URL,
			storeDir: base + "/store",
			queueDir: base + "/queue",
			hintDir:  base + "/hints",
			factor:   3,
			ledger:   ledger,
		}
		peers[i] = srv.URL
	}
	a, b, c := nodes[0], nodes[1], nodes[2]
	cfg := func() service.Config {
		return service.Config{
			Workers:        2,
			StealInterval:  -1,
			RepairInterval: -1, // hints must do ALL the healing
			ProbeInterval:  120 * time.Millisecond,
			ProbeMisses:    3,
		}
	}
	for _, n := range nodes {
		n.boot(peers, cfg(), NetPlan{})
	}
	cHost := strings.TrimPrefix(c.addr, "http://")
	cNorm := cluster.NormalizeAddr(c.addr)
	// Partition C away from A and B. The test harness itself still
	// reaches C directly — C is alive and answering, its peers just
	// cannot see it, which is exactly the failure hints exist for.
	a.net.Sever(cHost)
	b.net.Sever(cHost)

	// ── Load under the partition: 50 keys split across A and B. ──
	keys := make(map[uint64]string)
	ids := map[*soakClusterNode][]string{}
	for seed := uint64(501); seed <= 550; seed++ {
		n := a
		if seed%2 == 0 {
			n = b
		}
		st, err := n.s.Submit(soakSpec(seed))
		if err != nil {
			t.Fatalf("submit seed %d to %s: %v", seed, n.name, err)
		}
		keys[seed] = st.Key
		ids[n] = append(ids[n], st.ID)
	}
	for _, n := range []*soakClusterNode{a, b} {
		nn := n
		soakWait(t, "load settlement on "+n.name, 60*time.Second, func() bool {
			for _, id := range ids[nn] {
				st, err := nn.s.Get(id)
				if err != nil || st.State != service.StateDone {
					return false
				}
			}
			return true
		})
	}
	// Every push toward severed C bounces into a hint: one per key,
	// deduplicated, on the node that computed it.
	soakWait(t, "hints to accumulate on A and B", 30*time.Second, func() bool {
		return a.hl.PendingFor(cNorm) == 25 && b.hl.PendingFor(cNorm) == 25
	})
	for _, n := range nodes {
		if got := repairRunsOn(t, n.addr); got != 0 {
			t.Fatalf("%s completed %d repair passes with repair disabled", n.name, got)
		}
	}

	// ── SIGKILL A mid-outage: the hint log must survive and replay. ──
	a.kill()
	a.severed = []string{cHost} // the outage outlives the crash
	a.boot(peers, cfg(), NetPlan{})
	if got := a.hl.Stats().Replayed; got != 25 {
		t.Fatalf("A replayed %d hints after SIGKILL, want 25", got)
	}
	if got := a.hl.PendingFor(cNorm); got != 25 {
		t.Fatalf("A holds %d pending hints after replay, want 25", got)
	}

	// ── Heal the partition: hints must deliver everything. ──
	a.net.Heal(cHost)
	b.net.Heal(cHost)
	soakWait(t, "C to serve all 50 hinted keys", 60*time.Second, func() bool {
		for _, key := range keys {
			if !served(c.addr, key) {
				return false
			}
		}
		return true
	})
	soakWait(t, "hint queues to drain", 30*time.Second, func() bool {
		return a.hl.PendingFor(cNorm) == 0 && b.hl.PendingFor(cNorm) == 0
	})
	if got := c.s.Metrics().EngineRuns.Load(); got != 0 {
		t.Fatalf("C ran %d engines; hint delivery must not compute", got)
	}
	for _, n := range nodes {
		if got := repairRunsOn(t, n.addr); got != 0 {
			t.Fatalf("%s completed %d repair passes; hints must heal alone", n.name, got)
		}
	}
	if got := a.hl.Stats().Delivered; got != 25 {
		t.Fatalf("A delivered %d hints, want 25", got)
	}
	for seed := uint64(501); seed <= 550; seed++ {
		if got := ledger.count(seed); got != 1 {
			t.Fatalf("seed %d ran %d times, want exactly 1", seed, got)
		}
	}

	// ── Idempotent delivery at the wire: re-deliver a body C already
	// holds (a flapping peer would see exactly this). ──
	key := keys[501]
	get := func() string {
		resp, err := http.Get(c.addr + cluster.ResultsPathPrefix + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	before := get()
	req, _ := http.NewRequest(http.MethodPut, c.addr+cluster.ResultsPathPrefix+key, strings.NewReader(before))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("duplicate delivery answered %d", resp.StatusCode)
	}
	if after := get(); after != before {
		t.Fatalf("duplicate delivery changed stored bytes:\nbefore: %s\nafter:  %s", before, after)
	}
	if got := c.s.Metrics().EngineRuns.Load(); got != 0 {
		t.Fatalf("duplicate delivery ran %d engines on C", got)
	}
}
