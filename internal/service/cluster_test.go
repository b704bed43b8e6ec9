package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/mc"
	"coordattack/internal/queue"
)

// swapHandler lets a test stand up the HTTP listener first (the cluster
// needs every peer's address before any Server exists) and install the
// real handler afterwards.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// clusterPair boots two coordd servers on loopback joined as a 2-node
// cluster and returns them with their advertised addresses.
func clusterPair(t *testing.T, cfgA, cfgB Config) (a, b *Server, addrA, addrB string) {
	t.Helper()
	shA, shB := &swapHandler{}, &swapHandler{}
	srvA := httptest.NewServer(shA)
	srvB := httptest.NewServer(shB)
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)
	addrA, addrB = srvA.URL, srvB.URL

	mk := func(self string, cfg Config) *Server {
		cl, err := cluster.New(cluster.Options{
			Self:             self,
			Peers:            []string{addrA, addrB},
			Timeout:          500 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  200 * time.Millisecond,
			Logf:             t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cluster = cl
		if cfg.WatchdogInterval == 0 {
			cfg.WatchdogInterval = -1
		}
		s := New(cfg)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Drain(ctx)
		})
		return s
	}
	a = mk(addrA, cfgA)
	b = mk(addrB, cfgB)
	shA.set(a.Handler())
	shB.set(b.Handler())
	return a, b, addrA, addrB
}

// specOwnedBy searches seeds until the canonical key's ring owner is
// owner — so tests can aim a submission at a specific node's arc.
func specOwnedBy(t *testing.T, c *cluster.Cluster, owner string, trials int) JobSpec {
	t.Helper()
	for seed := uint64(1); seed < 4000; seed++ {
		spec := JobSpec{Protocol: "a", Graph: "pair", Trials: trials, Seed: seed}
		canon, err := spec.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if c.Owner(canon.Key()) == cluster.NormalizeAddr(owner) {
			return spec
		}
	}
	t.Fatal("no seed found mapping to the requested owner")
	return JobSpec{}
}

func waitDone(t *testing.T, s *Server, id string) *Status {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Get(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return nil
}

// A key computed on one node must be served to the other as a cache
// hit: replication pushes the body to the ring owner, and the miss path
// consults the owner before running the engine — zero extra engine runs.
func TestClusterPeerResultHit(t *testing.T) {
	a, b, _, addrB := clusterPair(t,
		Config{Workers: 1, StealInterval: -1, RepairInterval: -1},
		Config{Workers: 1, StealInterval: -1, RepairInterval: -1},
	)
	// A key B owns, computed on A: the body lands on B by replication,
	// so B's submission finds it locally — and a third node would find
	// it via the owner. Either path costs zero engine runs.
	spec := specOwnedBy(t, a.cluster, addrB, 50)
	st, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, a, st.ID)
	if st.State != StateDone {
		t.Fatalf("compute on A: %s (%s)", st.State, st.Error)
	}
	// With repair off, the compute alone fans the body out to every
	// other member of the key's replica set.
	for _, addr := range a.cluster.ReplicaSet(st.Key) {
		if addr != a.cluster.Self() {
			waitUntil(t, "replica "+addr+" to hold the body", func() bool { return nodeHasResult(addr, st.Key) })
		}
	}
	// B now answers the same spec from its own tiers.
	deadline := time.Now().Add(5 * time.Second)
	for b.Metrics().EngineRuns.Load() == 0 && time.Now().Before(deadline) {
		stB, err := b.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		stB = waitDone(t, b, stB.ID)
		if stB.State != StateDone {
			t.Fatalf("on B: %s (%s)", stB.State, stB.Error)
		}
		if stB.Cached {
			if string(stB.Result) != string(st.Result) {
				t.Fatalf("peer-served bytes differ:\nA: %s\nB: %s", st.Result, stB.Result)
			}
			if b.Metrics().EngineRuns.Load() != 0 {
				t.Fatalf("B ran the engine despite the replicated result")
			}
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("B never served the replicated result as a cache hit (engine runs on B: %d)",
		b.Metrics().EngineRuns.Load())
}

// A local miss for a key whose owner already holds the body must be
// answered by a peer fetch on the worker path, counted as a peer hit
// with no engine run.
func TestClusterWorkerPathPeerFetch(t *testing.T) {
	a, _, _, addrB := clusterPair(t,
		Config{Workers: 1, StealInterval: -1},
		Config{Workers: 1, StealInterval: -1},
	)
	// A spec owned by B, pre-loaded into B's tiers via the peer PUT
	// endpoint (bit-exact replication path), then submitted on A: A's
	// worker must fetch it from B instead of computing.
	spec := specOwnedBy(t, a.cluster, addrB, 60)
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	key := canon.Key()
	body := []byte(`{"preloaded":true}`)
	req, _ := http.NewRequest(http.MethodPut, addrB+cluster.ResultsPathPrefix+key, strings.NewReader(string(body)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("peer PUT answered %d", resp.StatusCode)
	}

	st, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, a, st.ID)
	if st.State != StateDone || string(st.Result) != string(body) {
		t.Fatalf("peer fetch: state=%s result=%s", st.State, st.Result)
	}
	if got := a.Metrics().EngineRuns.Load(); got != 0 {
		t.Fatalf("A ran %d engines, want 0 (peer fetch should answer)", got)
	}
	if got := a.Metrics().PeerHits.Load(); got != 1 {
		t.Fatalf("peer hits = %d, want 1", got)
	}
}

// Work stealing end to end: a saturated victim's pending jobs are
// adopted by an idle thief, every job settles done on the victim, and
// each distinct key runs an engine exactly once across the cluster.
func TestClusterStealExactlyOnce(t *testing.T) {
	gate := make(chan struct{})
	var gated sync.Once
	a, b, _, _ := clusterPair(t,
		Config{
			Workers:       1,
			StealInterval: -1, // A never steals; it is the victim
			WrapEngine: func(engine string, next RunFunc) RunFunc {
				return func(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
					block := false
					gated.Do(func() { block = true })
					if block {
						select {
						case <-gate:
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					}
					return next(ctx, spec, workers, progress)
				}
			},
		},
		Config{Workers: 2, StealInterval: 50 * time.Millisecond},
	)

	// Job 1 occupies A's only worker (gated); jobs 2..4 queue behind it.
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		st, err := a.Submit(JobSpec{Protocol: "a", Graph: "pair", Trials: 40, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// B's steal loop (50 ms) should lift the surplus: depth 3 minus
	// A's pool of 1 leaves 2 stealable jobs.
	deadline := time.Now().Add(10 * time.Second)
	for a.Metrics().JobsDonated.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := a.Metrics().JobsDonated.Load(); got != 2 {
		t.Fatalf("A donated %d jobs, want 2 (depth 3 − 1 worker)", got)
	}
	close(gate)

	for _, id := range ids {
		if st := waitDone(t, a, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	runsA, runsB := a.Metrics().EngineRuns.Load(), b.Metrics().EngineRuns.Load()
	if runsA+runsB != 4 {
		t.Fatalf("engine runs A=%d B=%d, want exactly 4 total (one per key)", runsA, runsB)
	}
	if got := b.Metrics().JobsStolen.Load(); got != 2 {
		t.Fatalf("B adopted %d jobs, want 2", got)
	}
	if got := a.Metrics().PeerHits.Load(); got != 2 {
		t.Fatalf("A retrieved %d stolen results, want 2", got)
	}
}

// Satellite: peer-failure degradation. A dead owner costs latency only:
// submissions on its arcs fall through to local compute, the breaker
// opens after the configured failures (stopping further dials), healthz
// reports it, and a recovered peer closes it again.
func TestClusterDeadPeerDegradesAndRecovers(t *testing.T) {
	// Reserve an address, then kill it: the peer is down from the start.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := "http://" + l.Addr().String()
	l.Close()

	shA := &swapHandler{}
	srvA := httptest.NewServer(shA)
	defer srvA.Close()
	cl, err := cluster.New(cluster.Options{
		Self:             srvA.URL,
		Peers:            []string{srvA.URL, deadAddr},
		Timeout:          200 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Workers: 1, Cluster: cl, StealInterval: -1, WatchdogInterval: -1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = a.Drain(ctx)
	}()
	shA.set(a.Handler())

	// Three distinct keys on the dead peer's arcs: each submission must
	// still settle done (local compute), and the third failed dial opens
	// the breaker.
	found := 0
	for seed := uint64(1); seed < 4000 && found < 3; seed++ {
		spec := JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: seed}
		canon, err := spec.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if cl.Owner(canon.Key()) != cluster.NormalizeAddr(deadAddr) {
			continue
		}
		found++
		st, err := a.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st = waitDone(t, a, st.ID); st.State != StateDone {
			t.Fatalf("dead-peer fallback: %s (%s)", st.State, st.Error)
		}
	}
	if found < 3 {
		t.Fatalf("only %d specs found on the dead peer's arcs", found)
	}
	if !cl.PeerDown(deadAddr) {
		t.Fatal("breaker should be open after 3 failed owner dials")
	}

	// healthz reflects it: cluster degraded, the peer marked open.
	hz := httpGetJSON(t, srvA.URL+"/healthz")
	if hz["cluster"] != "degraded" {
		t.Fatalf("healthz cluster = %v, want degraded", hz["cluster"])
	}
	peers, _ := hz["peers"].(map[string]any)
	if peers[cluster.NormalizeAddr(deadAddr)] != "open" {
		t.Fatalf("healthz peers = %v, want %s open", peers, deadAddr)
	}

	// Recovery: something starts answering at the dead address. After
	// the cooldown, the next probe succeeds (a clean 404 miss counts)
	// and the breaker closes.
	l2, err := net.Listen("tcp", strings.TrimPrefix(deadAddr, "http://"))
	if err != nil {
		t.Skipf("could not rebind %s: %v", deadAddr, err)
	}
	revived := &http.Server{Handler: http.NotFoundHandler()}
	go revived.Serve(l2)
	defer revived.Close()

	deadline := time.Now().Add(5 * time.Second)
	for cl.PeerDown(deadAddr) && time.Now().Before(deadline) {
		time.Sleep(120 * time.Millisecond) // past the 100 ms cooldown
		_, _, _ = cl.FetchFrom(context.Background(), deadAddr, fmt.Sprintf("%064d", 0))
	}
	if cl.PeerDown(deadAddr) {
		t.Fatal("breaker never closed after the peer recovered")
	}
	hz = httpGetJSON(t, srvA.URL+"/healthz")
	if hz["cluster"] != "ok" {
		t.Fatalf("healthz cluster = %v after recovery, want ok", hz["cluster"])
	}
}

// The admin endpoint exposes the ring and breaker state; standalone
// daemons answer 404.
func TestClusterAdminEndpoint(t *testing.T) {
	a, _, addrA, addrB := clusterPair(t,
		Config{Workers: 1, StealInterval: -1},
		Config{Workers: 1, StealInterval: -1},
	)
	snapBody := httpGetJSON(t, addrA+"/v1/admin/cluster")
	if snapBody["self"] != cluster.NormalizeAddr(addrA) {
		t.Fatalf("admin cluster self = %v", snapBody["self"])
	}
	peersAny, _ := snapBody["peers"].([]any)
	if len(peersAny) != 1 {
		t.Fatalf("admin cluster peers = %v, want the one peer %s", snapBody["peers"], addrB)
	}
	_ = a

	standalone := New(Config{Workers: 1, WatchdogInterval: -1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = standalone.Drain(ctx)
	}()
	srv := httptest.NewServer(standalone.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/admin/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("standalone admin cluster answered %d, want 404", resp.StatusCode)
	}
}

// Peer endpoints validate keys and reject junk bodies.
func TestPeerEndpointValidation(t *testing.T) {
	s := New(Config{Workers: 1, WatchdogInterval: -1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + cluster.ResultsPathPrefix + "not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key answered %d, want 400", resp.StatusCode)
	}
	key := fmt.Sprintf("%064x", 1)
	resp, err = http.Get(srv.URL + cluster.ResultsPathPrefix + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key answered %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPut, srv.URL+cluster.ResultsPathPrefix+key, strings.NewReader("not json"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk PUT answered %d, want 400", resp.StatusCode)
	}
}

func httpGetJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return out
}

// A job whose deadline passed while it waited in the queue gives up
// before its peer lookup: the lookup sends nothing and books
// {results, cancelled}, and the healthy peer's breaker gets no verdict.
// Charging the peer instead would open its breaker after three such
// jobs and turn its results into local recomputes until the next good
// ping.
func TestClusterExpiredQueuedJobsSparePeerBreaker(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()
	a, _, _, _ := clusterPair(t,
		Config{Workers: 1, StealInterval: -1, RepairInterval: -1, ProbeInterval: -1, WrapEngine: stallWrapper(800, block)},
		Config{Workers: 1, StealInterval: -1, RepairInterval: -1, ProbeInterval: -1},
	)
	if _, err := a.Submit(JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: 800}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "blocker to occupy the worker", func() bool { return a.pool(queue.ClassInteractive).running.Load() == 1 })
	var ids []string
	for seed := uint64(801); seed <= 803; seed++ {
		st, err := a.Submit(JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: seed, TimeoutSec: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitUntil(t, "the queued jobs' deadlines to pass", func() bool {
		for _, id := range ids {
			if j, err := a.job(id); err != nil || j.ctx.Err() == nil {
				return false
			}
		}
		return true
	})
	release()
	for _, id := range ids {
		waitDone(t, a, id)
	}
	snap := a.cluster.Snapshot()
	lookups := map[string]int64{}
	for _, r := range snap.Requests {
		if r.Op == "results" {
			lookups[r.Outcome] += r.Count
		}
	}
	if lookups["error"] != 0 || lookups["cancelled"] != 3 {
		t.Fatalf("peer lookups by outcome = %v, want 3 cancelled and no error", lookups)
	}
	if p := snap.Peers[0]; p.Breaker != cluster.StateClosed || p.Failures != 0 {
		t.Fatalf("healthy peer charged by expired jobs: breaker=%s failures=%d", p.Breaker, p.Failures)
	}
}

// A victim grants work only to a thief in its own ring: a steal request
// naming any other address gets an empty grant — nothing donated, so no
// job is polled for at an address the cluster cannot dial and then run
// twice — while a ring member still takes the surplus.
func TestClusterStealGrantsOnlyRingMembers(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()
	a, b, addrA, _ := clusterPair(t,
		Config{Workers: 1, StealInterval: -1, WrapEngine: stallWrapper(820, block)},
		Config{Workers: 2, StealInterval: -1},
	)
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := a.Submit(JobSpec{Protocol: "a", Graph: "pair", Trials: 40, Seed: uint64(820 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		if i == 0 {
			waitUntil(t, "blocker to occupy the worker", func() bool { return a.pool(queue.ClassInteractive).running.Load() == 1 })
		}
	}

	// Depth 3 on one worker leaves a surplus of 2, but not for a stranger.
	resp, err := http.Post(addrA+cluster.StealPath, "application/json",
		strings.NewReader(`{"want": 2, "thief": "http://10.255.255.1:9"}`))
	if err != nil {
		t.Fatal(err)
	}
	var grant cluster.StealResponse
	err = json.NewDecoder(resp.Body).Decode(&grant)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("steal by a non-member: status %d, decode %v", resp.StatusCode, err)
	}
	if len(grant.Jobs) != 0 || a.Metrics().JobsDonated.Load() != 0 {
		t.Fatalf("non-member thief granted %d jobs (donated %d), want none", len(grant.Jobs), a.Metrics().JobsDonated.Load())
	}

	// The ring member B still gets the surplus.
	b.stealRound()
	if got := a.Metrics().JobsDonated.Load(); got != 2 {
		t.Fatalf("A donated %d jobs to ring member B, want 2", got)
	}
	if got := b.Metrics().JobsStolen.Load(); got != 2 {
		t.Fatalf("B adopted %d jobs, want 2", got)
	}
	release()
	for _, id := range ids {
		if st := waitDone(t, a, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	if runs := a.Metrics().EngineRuns.Load() + b.Metrics().EngineRuns.Load(); runs != 4 {
		t.Fatalf("engine runs = %d, want 4 (one per key)", runs)
	}
}
