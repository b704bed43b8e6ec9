package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coordattack/internal/cluster"
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
	if pf := a.Metrics().PushFailures(); pf[normB] == 0 {
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
