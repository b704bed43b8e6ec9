package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/store"
)

// clusterTrio boots three coordd servers joined as a 3-node cluster
// with full replication (factor 3), so every key's replica set is the
// whole membership — the shape read-repair and hint tests need.
func clusterTrio(t *testing.T, mkCfg func(i int) Config) (srvs [3]*Server, shs [3]*swapHandler, addrs [3]string) {
	t.Helper()
	for i := range shs {
		shs[i] = &swapHandler{}
		hs := httptest.NewServer(shs[i])
		t.Cleanup(hs.Close)
		addrs[i] = hs.URL
	}
	for i := range srvs {
		cl, err := cluster.New(cluster.Options{
			Self:             addrs[i],
			Peers:            addrs[:],
			Factor:           3,
			Timeout:          500 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  200 * time.Millisecond,
			Logf:             t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := mkCfg(i)
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
		srvs[i] = s
		shs[i].set(s.Handler())
	}
	return srvs, shs, addrs
}

// Tentpole: hinted handoff end to end inside the service. A replica
// push that bounces off a dark peer queues a hint; the failure detector
// notices the peer healing and the hint drains — the peer ends up with
// the body having run zero engines, with anti-entropy disabled the
// whole time.
func TestClusterPeerHintedHandoffDelivery(t *testing.T) {
	srvs, shs, addrs := clusterTrio(t, func(i int) Config {
		return Config{
			Workers:       1,
			StealInterval: -1,
			ProbeInterval: 50 * time.Millisecond,
			ProbeMisses:   2,
		}
	})
	a, b := srvs[0], srvs[1]
	addrB := addrs[1]

	// B goes dark: its listener answers 503 to everything, so pushes
	// and pings both fail. (The listener stays up — the breaker sees
	// fast refusals, the detector sees misses.)
	shB := shs[1]
	shB.set(nil)

	// Compute on A a key owned by B: the owner consult fails, A
	// computes locally, and the replica push to B bounces into a hint.
	spec := specOwnedBy(t, a.cluster, addrB, 50)
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	key := canon.Key()
	st, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, a, st.ID); st.State != StateDone {
		t.Fatalf("compute with dark peer: %s (%s)", st.State, st.Error)
	}

	normB := cluster.NormalizeAddr(addrB)
	deadline := time.Now().Add(5 * time.Second)
	for a.hints.PendingFor(normB) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := a.hints.PendingFor(normB); got == 0 {
		t.Fatal("failed replica push never queued a hint")
	}
	if _, pf := replicaCounts(a.cluster.Snapshot()); pf[normB] == 0 {
		t.Fatalf("push failure not counted for %s: %v", normB, pf)
	}
	// The detector must have marked B dead by now (2 misses at 50 ms).
	for a.cluster.PeerHealth(normB) != cluster.HealthDead && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := a.cluster.PeerHealth(normB); got != cluster.HealthDead {
		t.Fatalf("peer health = %q, want dead", got)
	}

	// Heal B. The next successful ping fires OnAlive and the hint
	// drains — B ends up holding the body without running anything.
	shB.set(b.Handler())
	for a.hints.PendingFor(normB) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := a.hints.PendingFor(normB); got != 0 {
		t.Fatalf("%d hints still pending after the peer healed", got)
	}
	has, err := a.cluster.HasResult(context.Background(), normB, key)
	if err != nil || !has {
		t.Fatalf("healed peer missing the hinted body: has=%v err=%v", has, err)
	}
	if got := b.Metrics().EngineRuns.Load(); got != 0 {
		t.Fatalf("B ran %d engines; hint delivery must not compute", got)
	}
	if got := a.hints.Stats().Delivered; got == 0 {
		t.Fatal("delivered counter did not move")
	}

	// Idempotency: delivering the same hint again (the peer flapping
	// mid-drain would do this) rewrites identical bytes and still runs
	// no engine.
	bodyBefore, found, err := a.cluster.FetchFrom(context.Background(), normB, key)
	if err != nil || !found {
		t.Fatalf("could not fetch the delivered body back: found=%v err=%v", found, err)
	}
	if err := a.hints.Add(normB, key); err != nil {
		t.Fatal(err)
	}
	a.deliverHints(normB)
	bodyAfter, found, err := a.cluster.FetchFrom(context.Background(), normB, key)
	if err != nil || !found || string(bodyAfter) != string(bodyBefore) {
		t.Fatalf("duplicate delivery changed stored bytes:\nbefore: %s\nafter:  %s", bodyBefore, bodyAfter)
	}
	if got := b.Metrics().EngineRuns.Load(); got != 0 {
		t.Fatalf("duplicate delivery ran %d engines", got)
	}
}

// Satellite: fetch-path read-repair. With anti-entropy off, a fetch
// that recovers a body from one replica pushes it to the replica-set
// members that missed it, off the request path.
func TestClusterPeerReadRepairHealsReplica(t *testing.T) {
	srvs, _, addrs := clusterTrio(t, func(i int) Config {
		return Config{Workers: 1, StealInterval: -1, ProbeInterval: -1}
	})
	a, b, c := srvs[0], srvs[1], srvs[2]

	// Pre-seed the body onto C only (bit-exact peer PUT), then submit
	// on A: A misses locally, recovers the body from C, and read-repair
	// must close B's gap — all with zero engine runs anywhere.
	spec := JobSpec{Protocol: "a", Graph: "pair", Trials: 40, Seed: 9}
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	key := canon.Key()
	body := `{"preloaded":"read-repair"}`
	req, _ := http.NewRequest(http.MethodPut, addrs[2]+cluster.ResultsPathPrefix+key, strings.NewReader(body))
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
	if st = waitDone(t, a, st.ID); st.State != StateDone || string(st.Result) != body {
		t.Fatalf("fall-through fetch: state=%s result=%s", st.State, st.Result)
	}
	if got := a.Metrics().EngineRuns.Load(); got != 0 {
		t.Fatalf("A ran %d engines, want 0", got)
	}

	// Read-repair runs async off the request path; wait for B to hold
	// the body.
	normB := cluster.NormalizeAddr(addrs[1])
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if has, err := a.cluster.HasResult(context.Background(), normB, key); err == nil && has {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if has, err := a.cluster.HasResult(context.Background(), normB, key); err != nil || !has {
		t.Fatalf("read-repair never pushed the body to B: has=%v err=%v", has, err)
	}
	if got := a.Metrics().ReadRepairs.Load(); got == 0 {
		t.Fatal("read-repair counter did not move")
	}
	for _, s := range []*Server{b, c} {
		if got := s.Metrics().EngineRuns.Load(); got != 0 {
			t.Fatalf("a replica ran %d engines; healing must not compute", got)
		}
	}
}

// Satellite: the repair-pass budget derives from the repair interval,
// clamped to [1s, 10s].
func TestRepairTimeoutScalesWithInterval(t *testing.T) {
	cases := []struct {
		interval, want time.Duration
	}{
		{100 * time.Millisecond, time.Second}, // clamped up
		{5 * time.Second, 5 * time.Second},    // tracks the interval
		{time.Minute, 10 * time.Second},       // clamped down
	}
	for _, tc := range cases {
		if got := repairBudget(tc.interval); got != tc.want {
			t.Errorf("interval %v: timeout %v, want %v", tc.interval, got, tc.want)
		}
	}
}

// pushReplica is the replica peer of the push-rule test: it holds
// nothing (GET and HEAD answer 404) and refuses every PUT with 503
// until it is healed, after which PUTs answer 204.
type pushReplica struct{ healed atomic.Bool }

func (p *pushReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method != http.MethodPut:
		http.NotFound(w, r)
	case p.healed.Load():
		w.WriteHeader(http.StatusNoContent)
	default:
		w.WriteHeader(http.StatusServiceUnavailable)
	}
}

// pushSource is a peer that already holds some bodies: the one a
// fall-through fetch recovers them from.
type pushSource struct {
	mu     sync.Mutex
	bodies map[string]string
}

func (p *pushSource) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	body, ok := p.bodies[strings.TrimPrefix(r.URL.Path, cluster.ResultsPathPrefix)]
	p.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	_, _ = io.WriteString(w, body)
}

// scrapeMetrics reads a node's /metrics page into series → value, where
// a series is the metric name with its label set, as rendered.
func scrapeMetrics(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(page), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad metrics line %q", line)
		}
		out[line[:i]] = v
	}
	return out
}

var peerRequestSeries = regexp.MustCompile(`^coordd_peer_requests_total\{peer="([^"]*)",op="([^"]*)",outcome="([^"]*)"\}$`)

// checkReplicaSeries asserts that the replica-push series on a
// /metrics page are exactly the sums of the matching
// coordd_peer_requests_total cells: pushes are replicate requests that
// came back ok, push failures every other replicate outcome by peer.
func checkReplicaSeries(t *testing.T, m map[string]float64) {
	t.Helper()
	var pushes float64
	failures := make(map[string]float64)
	for series, v := range m {
		cell := peerRequestSeries.FindStringSubmatch(series)
		switch {
		case cell == nil:
		case cell[2] == "replicate" && cell[3] == "ok":
			pushes += v
		case cell[2] == "replicate":
			failures[cell[1]] += v
		}
	}
	if got := m["coordd_replica_pushes_total"]; got != pushes {
		t.Errorf("coordd_replica_pushes_total = %g, replicate/ok cells sum to %g", got, pushes)
	}
	for series, got := range m {
		if rest, ok := strings.CutPrefix(series, `coordd_replica_push_failures_total{peer="`); ok {
			if peer := strings.TrimSuffix(rest, `"}`); got != failures[peer] {
				t.Errorf("coordd_replica_push_failures_total{peer=%q} = %g, failed replicate cells sum to %g", peer, got, failures[peer])
			}
		}
	}
	for peer, want := range failures {
		if got := m[`coordd_replica_push_failures_total{peer="`+peer+`"}`]; got != want {
			t.Errorf("coordd_replica_push_failures_total{peer=%q} = %g, failed replicate cells sum to %g", peer, got, want)
		}
	}
}

// TestClusterReplicaPushRuleEveryWriter pins the one rule every replica
// write follows, whichever mechanism sends it: a push that fails queues
// a (replica, key) hint and counts once in the replica's
// coordd_replica_push_failures_total, a push that lands counts once in
// coordd_replica_pushes_total, and both series are the sums of the
// cluster's own replicate request cells. The four writers are the
// compute fan-out, read-repair after a fall-through fetch, one
// anti-entropy repair pass, and one hint delivery; each meets a replica
// that misses every key and refuses every push until it heals.
func TestClusterReplicaPushRuleEveryWriter(t *testing.T) {
	type fixture struct {
		a       *Server
		st      *store.Store
		addrA   string
		replica string
		src     *pushSource
	}
	// specKey returns a spec no other row or round uses and its key.
	specKey := func(t *testing.T, seed uint64) (JobSpec, string) {
		spec := JobSpec{Protocol: "a", Graph: "pair", Trials: 40, Seed: seed}
		canon, err := spec.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		return spec, canon.Key()
	}
	submit := func(t *testing.T, fx *fixture, spec JobSpec) *Status {
		st, err := fx.a.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st = waitDone(t, fx.a, st.ID); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
		return st
	}
	storedKey := fmt.Sprintf("%064x", 7)
	rows := []struct {
		name string
		// source adds a third member that already holds the bodies the
		// row fetches.
		source bool
		// fire runs the writer once in round 0 (replica sick) or 1
		// (replica healed) and returns the key it pushes.
		fire func(t *testing.T, fx *fixture, round int) string
	}{
		{"compute", false, func(t *testing.T, fx *fixture, round int) string {
			spec, key := specKey(t, uint64(700+round))
			submit(t, fx, spec)
			return key
		}},
		{"read-repair", true, func(t *testing.T, fx *fixture, round int) string {
			spec, key := specKey(t, uint64(710+round))
			body := fmt.Sprintf(`{"recovered":%d}`, round)
			fx.src.mu.Lock()
			fx.src.bodies[key] = body
			fx.src.mu.Unlock()
			if st := submit(t, fx, spec); string(st.Result) != body {
				t.Fatalf("fall-through fetch served %s, want %s", st.Result, body)
			}
			return key
		}},
		{"repair", false, func(t *testing.T, fx *fixture, round int) string {
			if err := fx.st.Put(storedKey, json.RawMessage(`{"stored":true}`)); err != nil {
				t.Fatal(err)
			}
			_, pushed := fx.a.repairPass(context.Background())
			t.Logf("round %d: repair pass pushed=%d", round, pushed)
			return storedKey
		}},
		{"delivery", false, func(t *testing.T, fx *fixture, round int) string {
			if err := fx.st.Put(storedKey, json.RawMessage(`{"stored":true}`)); err != nil {
				t.Fatal(err)
			}
			if err := fx.a.hints.Add(fx.replica, storedKey); err != nil {
				t.Fatal(err)
			}
			fx.a.deliverHints(fx.replica)
			return storedKey
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rep := &pushReplica{}
			srvR := httptest.NewServer(rep)
			t.Cleanup(srvR.Close)
			fx := &fixture{replica: cluster.NormalizeAddr(srvR.URL), src: &pushSource{bodies: map[string]string{}}}
			peers := []string{srvR.URL}
			if row.source {
				srvS := httptest.NewServer(fx.src)
				t.Cleanup(srvS.Close)
				peers = append(peers, srvS.URL)
			}
			shA := &swapHandler{}
			srvA := httptest.NewServer(shA)
			t.Cleanup(srvA.Close)
			fx.addrA = srvA.URL
			cl, err := cluster.New(cluster.Options{
				Self:    srvA.URL,
				Peers:   peers,
				Factor:  3,
				Timeout: 500 * time.Millisecond,
				Logf:    t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if fx.st, err = store.Open(t.TempDir(), store.Options{Logf: t.Logf}); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fx.st.Close)
			fx.a = New(Config{
				Workers:          1,
				Cluster:          cl,
				Store:            fx.st,
				WatchdogInterval: -1,
				StealInterval:    -1,
				RepairInterval:   -1,
				ProbeInterval:    -1,
			})
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = fx.a.Drain(ctx)
			})
			shA.set(fx.a.Handler())

			failSeries := `coordd_replica_push_failures_total{peer="` + fx.replica + `"}`
			pending := func(key string) bool {
				for _, k := range fx.a.hints.Pending(fx.replica) {
					if k == key {
						return true
					}
				}
				return false
			}
			// settled polls until cond holds, for the writers that push off
			// the request path, and returns the last scrape.
			settled := func(cond func(m map[string]float64) bool) map[string]float64 {
				deadline := time.Now().Add(5 * time.Second)
				for {
					m := scrapeMetrics(t, fx.addrA)
					if cond(m) || time.Now().After(deadline) {
						return m
					}
					time.Sleep(10 * time.Millisecond)
				}
			}

			before := scrapeMetrics(t, fx.addrA)
			key := row.fire(t, fx, 0)
			m := settled(func(m map[string]float64) bool {
				return pending(key) && m[failSeries] > before[failSeries]
			})
			if !pending(key) {
				t.Errorf("sick replica: no hint pending for (%s, %.8s)", fx.replica, key)
			}
			if got := m[failSeries] - before[failSeries]; got != 1 {
				t.Errorf("sick replica: %s rose by %g, want 1", failSeries, got)
			}
			if got := m["coordd_replica_pushes_total"] - before["coordd_replica_pushes_total"]; got != 0 {
				t.Errorf("sick replica: coordd_replica_pushes_total rose by %g, want 0", got)
			}
			checkReplicaSeries(t, m)

			rep.healed.Store(true)
			before = m
			key = row.fire(t, fx, 1)
			m = settled(func(m map[string]float64) bool {
				return m["coordd_replica_pushes_total"] > before["coordd_replica_pushes_total"]
			})
			if got := m["coordd_replica_pushes_total"] - before["coordd_replica_pushes_total"]; got != 1 {
				t.Errorf("healed replica: coordd_replica_pushes_total rose by %g, want 1", got)
			}
			if got := m[failSeries] - before[failSeries]; got != 0 {
				t.Errorf("healed replica: %s rose by %g, want 0", failSeries, got)
			}
			if row.name == "delivery" && pending(key) {
				t.Errorf("delivered hint (%s, %.8s) still pending", fx.replica, key)
			}
			checkReplicaSeries(t, m)
		})
	}
}
