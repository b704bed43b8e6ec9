package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/mc"
	"coordattack/internal/queue"
	"coordattack/internal/store"
)

// This file enumerates the crash schedule of the steal handoff. For
// victim V, thief T, and stolen key K the steps are:
//
//	intent — V re-stamps K's journal record with T (fsynced) and grants
//	         K; the record stays pending,
//	adopt  — T enqueues K, journaling it when its journal is healthy,
//	follow — V polls T until K's result lands, and settling K on V
//	         tombstones the intent; or, once T provably has no record
//	         of K, reclaim — V re-accepts K and runs it.
//
// Each subtest crashes one or both nodes between two steps and asserts
// the invariant the protocol promises: the key's engine runs exactly
// once cluster-wide, and no crash point strands it.
//
//	P1  T never adopts (no crash)          → V reclaims, runs locally
//	P2  T never adopts, V dies post-intent → V's replay re-attaches the
//	    follower, which reclaims and runs locally
//	P3  T adopts, dies running K           → T's replay runs K; V's
//	    follower waits it out and serves the result as a peer hit
//	P4  T adopts, V dies after             → V's replay re-attaches the
//	    follower; T runs K; V serves it as a peer hit
//	P5  T adopts, dies with K still queued → T's replay runs K; V's
//	    follower gets the result
//	P6  T adopts, both die                 → T's replay runs K; V's
//	    replay follows it to a peer hit
//	P7  T's journal is degraded when it adopts, both die → T has no
//	    record of K; V's replay reclaims and runs it
//	P8  T gives K back to V (no crash)      → V reclaims and runs K; T
//	    follows V to a peer hit
//	P9  K goes A→B→C→A (no crash)           → A reclaims and runs K; C
//	    follows A, B follows C
//	P10 T gives K back, V dies before running it → V's replay holds a
//	    plain accept and runs K; T follows V
//
// Kill fidelity: the journal handle is closed first (appends stop
// reaching disk, like a SIGKILL), the HTTP handler is swapped out
// (peers see errors), and the pool is drained with an already-expired
// context (in-flight work is abandoned). Restart reopens the journal
// directory into a fresh Server on the same address.

const (
	crashBlockerSeed      = 424242
	crashThiefBlockerSeed = 424243
	crashThirdBlockerSeed = 424244
	crashStolenSeedA      = 1001
	crashStolenSeedB      = 1002
)

// runCounter tallies *completed* engine runs per canonical key across
// every node and every restart in one scenario — the cluster-wide
// exactly-once ledger.
type runCounter struct {
	mu   sync.Mutex
	runs map[string]int
}

func newRunCounter() *runCounter { return &runCounter{runs: make(map[string]int)} }

func (cc *runCounter) add(spec JobSpec) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return
	}
	cc.mu.Lock()
	cc.runs[canon.Key()]++
	cc.mu.Unlock()
}

func (cc *runCounter) get(key string) int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.runs[key]
}

// assertNoDoubles fails if any key anywhere in the scenario completed
// more than one engine run.
func (cc *runCounter) assertNoDoubles(t *testing.T) {
	t.Helper()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for key, n := range cc.runs {
		if n > 1 {
			t.Errorf("key %s ran %d engines, want at most 1", key[:16], n)
		}
	}
}

// crashNode is one cluster member with a stable loopback address that
// survives kill/restart cycles: the httptest listener stays up for the
// whole scenario; only the Server behind its swapHandler changes.
type crashNode struct {
	t        *testing.T
	sh       *swapHandler
	addr     string
	dir      string
	s        *Server
	jl       *queue.Journal
	gate     chan struct{}
	gateOnce *sync.Once
}

func newCrashNode(t *testing.T) *crashNode {
	t.Helper()
	sh := &swapHandler{}
	srv := httptest.NewServer(sh)
	t.Cleanup(srv.Close)
	return &crashNode{t: t, sh: sh, addr: srv.URL, dir: t.TempDir()}
}

// boot starts (or restarts) the node over its journal directory. Jobs
// whose seed is in gateSeeds block inside the engine until openGate —
// the scenario's handle on "crash while this job is pending/running".
func (n *crashNode) boot(cc *runCounter, peers []string, cfg Config, gateSeeds ...uint64) {
	n.t.Helper()
	jl, err := queue.OpenJournal(n.dir, queue.JournalOptions{Logf: n.t.Logf})
	if err != nil {
		n.t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Options{
		Self:             n.addr,
		Peers:            peers,
		Timeout:          300 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		Logf:             n.t.Logf,
	})
	if err != nil {
		n.t.Fatal(err)
	}
	n.gate = make(chan struct{})
	n.gateOnce = &sync.Once{}
	gate := n.gate
	gated := make(map[uint64]bool, len(gateSeeds))
	for _, s := range gateSeeds {
		gated[s] = true
	}
	cfg.Cluster = cl
	cfg.Journal = jl
	cfg.WatchdogInterval = -1
	if cfg.StealInterval == 0 {
		cfg.StealInterval = -1 // scenarios drive the handoff by hand
	}
	cfg.WrapEngine = func(engine string, next RunFunc) RunFunc {
		return func(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
			if gated[spec.Seed] {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			body, err := next(ctx, spec, workers, progress)
			if err == nil {
				cc.add(spec)
			}
			return body, err
		}
	}
	n.jl = jl
	n.s = New(cfg)
	n.sh.set(n.s.Handler())
	s, once, g := n.s, n.gateOnce, n.gate
	n.t.Cleanup(func() {
		once.Do(func() { close(g) })
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
}

func (n *crashNode) openGate() { n.gateOnce.Do(func() { close(n.gate) }) }

// kill simulates a node death: the journal handle closes first (so no
// settle written after this instant reaches disk), peers start seeing
// errors, and in-flight work is abandoned mid-run.
func (n *crashNode) kill() {
	n.t.Helper()
	n.jl.Close()
	n.sh.set(nil) // swapHandler answers 503 until the next boot
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = n.s.Drain(ctx)
	n.s, n.jl = nil, nil
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(15 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// nodeHasResult probes a node's peer results endpoint for key.
func nodeHasResult(addr, key string) bool {
	resp, err := http.Get(addr + cluster.ResultsPathPrefix + key)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// saturate fills the victim — a gated blocker pins its single worker,
// two more submissions build surplus — and returns the submitted jobs'
// ids by key.
func saturate(t *testing.T, v *crashNode) (ids map[string]string) {
	t.Helper()
	blocker := JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: crashBlockerSeed}
	st, err := v.s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	ids = map[string]string{st.Key: st.ID}
	waitUntil(t, "blocker to occupy the worker", func() bool { return v.s.pool(queue.ClassInteractive).running.Load() == 1 })
	for _, seed := range []uint64{crashStolenSeedA, crashStolenSeedB} {
		st, err := v.s.Submit(JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids[st.Key] = st.ID
	}
	return ids
}

// saturateAndGrant saturates the victim, then extracts a one-job grant
// for the thief's address, journaling the intent. Returns the grant and
// the submitted jobs' ids by key.
func saturateAndGrant(t *testing.T, v *crashNode, thiefAddr string) (grant []queue.Record, ids map[string]string) {
	t.Helper()
	ids = saturate(t, v)
	grant = v.s.stealVictim(1, thiefAddr)
	if len(grant) != 1 {
		t.Fatalf("stealVictim granted %d jobs, want 1", len(grant))
	}
	return grant, ids
}

// adopt has the thief adopt a one-job grant.
func adopt(t *testing.T, th *crashNode, grant []queue.Record) {
	t.Helper()
	if got := th.s.adoptStolen(grant); got != 1 {
		t.Fatalf("thief adopted %d jobs, want 1", got)
	}
}

// pin occupies a node's single worker with its gated blocker of seed.
func pin(t *testing.T, n *crashNode, seed uint64) {
	t.Helper()
	if _, err := n.s.Submit(JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "blocker to occupy the worker", func() bool { return n.s.pool(queue.ClassInteractive).running.Load() == 1 })
}

// passOn has a pinned node adopt a one-job grant for key, queue one
// more job of its own behind it (seed) so it has a surplus to donate,
// and grant key onward to next.
func passOn(t *testing.T, n *crashNode, grant []queue.Record, seed uint64, next string) []queue.Record {
	t.Helper()
	adopt(t, n, grant)
	if _, err := n.s.Submit(JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	onward := n.s.stealVictim(1, next)
	if len(onward) != 1 || onward[0].Key != grant[0].Key {
		t.Fatalf("onward grant %+v, want the adopted key %s", onward, grant[0].Key[:16])
	}
	return onward
}

// settlesDone waits for node n's job for key to settle and checks that
// it is done, a peer hit when hit is set.
func settlesDone(t *testing.T, n *crashNode, key string, hit bool) {
	t.Helper()
	id := ""
	for _, st := range n.s.Jobs() {
		if st.Key == key {
			id = st.ID
		}
	}
	if id == "" {
		t.Fatalf("%s has no job for the stolen key", n.addr)
	}
	if st := waitDone(t, n.s, id); st.State != StateDone || st.Cached != hit {
		t.Fatalf("%s job for stolen key: %s cached=%v (%s), want done cached=%v", n.addr, st.State, st.Cached, st.Error, hit)
	}
}

// assertPeerHit waits for the victim's replayed job for key to settle
// and checks that it came from the thief: a peer hit, with no reclaim,
// after the victim replayed its blocker, its filler and the intent.
func assertPeerHit(t *testing.T, v *crashNode, key string) {
	t.Helper()
	if got := v.s.Metrics().QueueReplayed.Load(); got != 3 {
		t.Fatalf("victim replayed %d records, want 3 (blocker, filler, intent)", got)
	}
	settlesDone(t, v, key, true)
	if got := v.s.Metrics().PeerHits.Load(); got != 1 {
		t.Fatalf("victim peer hits = %d, want 1", got)
	}
	if got := v.s.Metrics().JobsReclaimed.Load(); got != 0 {
		t.Fatalf("restarted victim reclaimed %d jobs, want 0", got)
	}
}

// assertReclaimed checks that the restarted victim replayed its
// blocker, its filler and the intent, found the thief without a record
// of key, and reclaimed and ran it once.
func assertReclaimed(t *testing.T, v *crashNode, cc *runCounter, key string) {
	t.Helper()
	if got := v.s.Metrics().QueueReplayed.Load(); got != 3 {
		t.Fatalf("victim replayed %d records, want 3 (blocker, filler, intent)", got)
	}
	waitUntil(t, "replayed follower to reclaim", func() bool {
		return v.s.Metrics().JobsReclaimed.Load() == 1
	})
	waitUntil(t, "reclaimed key to run locally", func() bool { return nodeHasResult(v.addr, key) })
	if got := cc.get(key); got != 1 {
		t.Fatalf("stolen key ran %d engines, want 1", got)
	}
}

func TestStealCrashSchedule(t *testing.T) {
	// P1: the thief never durably takes the job (it answers, but knows
	// nothing of K). The victim's follower exhausts its poll budget and
	// reclaims; every key runs exactly once, all on the victim.
	t.Run("P1_thief_never_adopts", func(t *testing.T) {
		cc := newRunCounter()
		v, th := newCrashNode(t), newCrashNode(t)
		peers := []string{v.addr, th.addr}
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 4}, crashBlockerSeed)
		th.boot(cc, peers, Config{Workers: 1})
		grant, ids := saturateAndGrant(t, v, th.addr)
		k := grant[0].Key

		waitUntil(t, "victim to reclaim the unadopted job", func() bool {
			return v.s.Metrics().JobsReclaimed.Load() == 1
		})
		v.openGate()
		for _, id := range ids {
			if st := waitDone(t, v.s, id); st.State != StateDone {
				t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
			}
		}
		if got := cc.get(k); got != 1 {
			t.Fatalf("stolen key ran %d engines, want 1", got)
		}
		if got := th.s.Metrics().JobsStolen.Load(); got != 0 {
			t.Fatalf("thief adopted %d jobs, want 0", got)
		}
		cc.assertNoDoubles(t)
	})

	// P2: same, but the victim dies right after journaling the intent.
	// Its replay must re-attach the follower (not blindly re-enqueue),
	// discover the thief never took the job, and run it locally once.
	t.Run("P2_victim_dies_after_intent", func(t *testing.T) {
		cc := newRunCounter()
		v, th := newCrashNode(t), newCrashNode(t)
		peers := []string{v.addr, th.addr}
		// Poll interval ~1h: the first instance's follower never fires
		// before the kill, so the crash point is exactly "intent on disk,
		// nothing else happened".
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: time.Hour, StealPollFailures: 4}, crashBlockerSeed)
		th.boot(cc, peers, Config{Workers: 1})
		grant, _ := saturateAndGrant(t, v, th.addr)
		k := grant[0].Key
		v.kill()

		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 4})
		assertReclaimed(t, v, cc, k)
		cc.assertNoDoubles(t)
	})

	// P3: the thief journals the job (adopt) and dies while running it.
	// Its restart replays and runs K; the victim's follower — which
	// keeps polling because the thief provably knows the job — serves
	// the result as a peer hit. No reclaim, no second run.
	t.Run("P3_thief_dies_running", func(t *testing.T) {
		cc := newRunCounter()
		v, th := newCrashNode(t), newCrashNode(t)
		peers := []string{v.addr, th.addr}
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 1000}, crashBlockerSeed)
		th.boot(cc, peers, Config{Workers: 1}, crashStolenSeedA, crashStolenSeedB)
		grant, ids := saturateAndGrant(t, v, th.addr)
		k := grant[0].Key

		adopt(t, th, grant)
		waitUntil(t, "thief to start the stolen job", func() bool { return th.s.pool(queue.ClassInteractive).running.Load() == 1 })
		th.kill() // K is in both WALs and ran 0 times

		th.boot(cc, peers, Config{Workers: 1})
		if st := waitDone(t, v.s, ids[k]); st.State != StateDone {
			t.Fatalf("victim job for stolen key: %s (%s)", st.State, st.Error)
		}
		if got := cc.get(k); got != 1 {
			t.Fatalf("stolen key ran %d engines, want 1", got)
		}
		if got := v.s.Metrics().JobsReclaimed.Load(); got != 0 {
			t.Fatalf("victim reclaimed %d jobs, want 0 (thief's WAL owned it)", got)
		}
		if got := v.s.Metrics().PeerHits.Load(); got != 1 {
			t.Fatalf("victim peer hits = %d, want 1", got)
		}
		cc.assertNoDoubles(t)
	})

	// P4: the thief adopts, then the victim dies. Its intent record is
	// still pending, so its replay re-attaches the follower, which finds
	// the thief's result: a peer hit, no reclaim, one run.
	t.Run("P4_victim_dies_after_adopt", func(t *testing.T) {
		cc := newRunCounter()
		v, th := newCrashNode(t), newCrashNode(t)
		peers := []string{v.addr, th.addr}
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: time.Hour, StealPollFailures: 4}, crashBlockerSeed)
		th.boot(cc, peers, Config{Workers: 1})
		grant, _ := saturateAndGrant(t, v, th.addr)
		k := grant[0].Key

		adopt(t, th, grant)
		v.kill()

		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 4})
		assertPeerHit(t, v, k)
		if got := cc.get(k); got != 1 {
			t.Fatalf("stolen key ran %d engines, want 1", got)
		}
		cc.assertNoDoubles(t)
	})

	// P5: the thief adopts K behind a job of its own, then dies before
	// running it. Its replay runs K; the victim's follower, still
	// polling, gets the result.
	t.Run("P5_thief_dies_before_run", func(t *testing.T) {
		cc := newRunCounter()
		v, th := newCrashNode(t), newCrashNode(t)
		peers := []string{v.addr, th.addr}
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 1000}, crashBlockerSeed)
		th.boot(cc, peers, Config{Workers: 1}, crashThiefBlockerSeed)
		pin(t, th, crashThiefBlockerSeed)
		grant, ids := saturateAndGrant(t, v, th.addr)
		k := grant[0].Key

		adopt(t, th, grant)
		th.kill() // K ran 0 times; it sits queued in the thief's WAL

		th.boot(cc, peers, Config{Workers: 1})
		if st := waitDone(t, v.s, ids[k]); st.State != StateDone {
			t.Fatalf("victim job for stolen key: %s (%s)", st.State, st.Error)
		}
		if got := cc.get(k); got != 1 {
			t.Fatalf("stolen key ran %d engines, want 1", got)
		}
		cc.assertNoDoubles(t)
	})

	// P6: the thief adopts, then both nodes die. The thief's replay runs
	// K once; the victim's replay follows it to a peer hit.
	t.Run("P6_both_die_after_adopt", func(t *testing.T) {
		cc := newRunCounter()
		v, th := newCrashNode(t), newCrashNode(t)
		peers := []string{v.addr, th.addr}
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: time.Hour, StealPollFailures: 4}, crashBlockerSeed)
		th.boot(cc, peers, Config{Workers: 1}, crashStolenSeedA, crashStolenSeedB)
		grant, _ := saturateAndGrant(t, v, th.addr)
		k := grant[0].Key

		adopt(t, th, grant)
		th.kill()
		v.kill()

		th.boot(cc, peers, Config{Workers: 1})
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 4})
		assertPeerHit(t, v, k)
		if got := cc.get(k); got != 1 {
			t.Fatalf("stolen key ran %d engines, want 1", got)
		}
		cc.assertNoDoubles(t)
	})

	// P7: the thief's journal is degraded (closed) when the steal loop
	// adopts, so K never reaches its disk; then both nodes die. Only the
	// victim's pending intent remembers K: its replay follows the thief,
	// learns that it has no record of K, and reclaims and runs it once.
	// The handoff goes through the thief's own steal round.
	t.Run("P7_degraded_thief_both_die", func(t *testing.T) {
		cc := newRunCounter()
		v, th := newCrashNode(t), newCrashNode(t)
		peers := []string{v.addr, th.addr}
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: time.Hour, StealPollFailures: 4}, crashBlockerSeed)
		th.boot(cc, peers, Config{Workers: 1}, crashStolenSeedA, crashStolenSeedB)
		saturate(t, v)
		th.jl.Close()
		th.s.stealRound()
		if got := th.s.Metrics().JobsStolen.Load(); got != 1 {
			t.Fatalf("thief adopted %d jobs, want 1", got)
		}
		k := ""
		for _, st := range v.s.Jobs() {
			if st.StolenBy != "" {
				k = st.Key
			}
		}
		if k == "" {
			t.Fatal("no victim job is marked stolen")
		}
		th.kill()
		v.kill()

		th.boot(cc, peers, Config{Workers: 1})
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 4})
		assertReclaimed(t, v, cc, k)
		cc.assertNoDoubles(t)
	})

	// P8: V grants K to T, T adopts it behind its own pinned blocker and
	// one more queued job, and V, now idle, steals from T and is handed
	// K back. V's own follower holds the key: V reclaims K and runs it,
	// and T, whose intent now names V, follows V to a peer hit.
	t.Run("P8_give_back", func(t *testing.T) {
		cc := newRunCounter()
		v, th := newCrashNode(t), newCrashNode(t)
		peers := []string{v.addr, th.addr}
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 1000}, crashBlockerSeed)
		th.boot(cc, peers, Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 1000}, crashThiefBlockerSeed)
		pin(t, th, crashThiefBlockerSeed)
		grant, _ := saturateAndGrant(t, v, th.addr)
		k := grant[0].Key
		adopt(t, th, grant)
		if _, err := th.s.Submit(JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: crashThirdBlockerSeed}); err != nil {
			t.Fatal(err)
		}

		v.openGate()
		waitUntil(t, "victim to go idle", func() bool { return v.s.pool(queue.ClassInteractive).running.Load() == 0 && v.s.queued() == 0 })
		v.s.stealRound()
		if got := v.s.Metrics().JobsReclaimed.Load(); got != 1 {
			t.Fatalf("victim reclaimed %d jobs, want 1 (K given back)", got)
		}
		if got := v.s.Metrics().JobsStolen.Load(); got != 0 {
			t.Fatalf("victim counted %d stolen jobs, want 0: a given-back job is reclaimed", got)
		}
		settlesDone(t, v, k, false)
		settlesDone(t, th, k, true)
		th.openGate()
		if got := cc.get(k); got != 1 {
			t.Fatalf("stolen key ran %d engines, want 1", got)
		}
		cc.assertNoDoubles(t)
	})

	// P9: K goes round a cycle, A→B→C→A, each node pinned with a job of
	// its own queued behind K. A's follower holds K when C's grant hands
	// it back: A reclaims and runs it once, C follows A and B follows C.
	t.Run("P9_cycle", func(t *testing.T) {
		cc := newRunCounter()
		a, b, c := newCrashNode(t), newCrashNode(t), newCrashNode(t)
		peers := []string{a.addr, b.addr, c.addr}
		cfg := Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 1000}
		a.boot(cc, peers, cfg, crashBlockerSeed)
		b.boot(cc, peers, cfg, crashThiefBlockerSeed)
		c.boot(cc, peers, cfg, crashThirdBlockerSeed)
		pin(t, b, crashThiefBlockerSeed)
		pin(t, c, crashThirdBlockerSeed)
		grant, _ := saturateAndGrant(t, a, b.addr)
		k := grant[0].Key
		grant = passOn(t, b, grant, crashStolenSeedB+10, c.addr)
		grant = passOn(t, c, grant, crashStolenSeedB+20, a.addr)

		adopt(t, a, grant)
		if got := a.s.Metrics().JobsReclaimed.Load(); got != 1 {
			t.Fatalf("A reclaimed %d jobs, want 1", got)
		}
		for _, n := range []*crashNode{a, b, c} {
			n.openGate()
		}
		settlesDone(t, a, k, false)
		settlesDone(t, c, k, true)
		settlesDone(t, b, k, true)
		if got := cc.get(k); got != 1 {
			t.Fatalf("stolen key ran %d engines, want 1", got)
		}
		cc.assertNoDoubles(t)
	})

	// P10: T gives K back while V's worker is still pinned, and V dies
	// before running it. The reclaim re-stamped V's intent as a plain
	// accept, so V's replay runs K; T's follower, whose budget outlasts
	// the restart, follows V to a peer hit.
	t.Run("P10_victim_dies_after_taking_back", func(t *testing.T) {
		cc := newRunCounter()
		v, th := newCrashNode(t), newCrashNode(t)
		peers := []string{v.addr, th.addr}
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: time.Hour, StealPollFailures: 4}, crashBlockerSeed)
		th.boot(cc, peers, Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 1000}, crashThiefBlockerSeed)
		pin(t, th, crashThiefBlockerSeed)
		grant, _ := saturateAndGrant(t, v, th.addr)
		k := grant[0].Key
		adopt(t, v, passOn(t, th, grant, crashThirdBlockerSeed, v.addr))
		v.kill() // K is a plain accept in V's WAL and ran 0 times

		v.boot(cc, peers, Config{Workers: 1})
		replayed := false
		for _, rec := range v.jl.Pending() {
			if rec.Key == k {
				replayed = true
				if rec.Op != queue.OpAccept || rec.Thief != "" {
					t.Fatalf("victim replayed K as op %q thief %q, want a plain accept", rec.Op, rec.Thief)
				}
			}
		}
		if !replayed {
			t.Fatal("victim's journal lost K")
		}
		settlesDone(t, v, k, false)
		settlesDone(t, th, k, true)
		th.openGate()
		if got := cc.get(k); got != 1 {
			t.Fatalf("stolen key ran %d engines, want 1", got)
		}
		cc.assertNoDoubles(t)
	})
}

// TestAdoptedJobKeepsItsAdmissionTime checks the envelope across a
// steal: the thief journals an adopted job with the admission time the
// victim's grant carries, and a grant without one — an older victim's,
// with neither op nor at — with the time it was adopted.
func TestAdoptedJobKeepsItsAdmissionTime(t *testing.T) {
	cc := newRunCounter()
	v, th := newCrashNode(t), newCrashNode(t)
	peers := []string{v.addr, th.addr}
	v.boot(cc, peers, Config{Workers: 1, StealPollInterval: 25 * time.Millisecond, StealPollFailures: 4}, crashBlockerSeed)
	th.boot(cc, peers, Config{Workers: 1}, crashThiefBlockerSeed)
	pin(t, th, crashThiefBlockerSeed)
	grant, _ := saturateAndGrant(t, v, th.addr)
	if grant[0].Op != queue.OpAccept || grant[0].At <= 0 {
		t.Fatalf("grant op %q at %d, want the victim's accept record", grant[0].Op, grant[0].At)
	}
	older := grant[0]
	older.Op, older.At = "", 0
	older.Spec = json.RawMessage(`{"protocol": "a", "graph": "pair", "trials": 30, "seed": 7}`)
	before := time.Now()
	if got := th.s.adoptStolen([]queue.Record{grant[0], older}); got != 2 {
		t.Fatalf("thief adopted %d jobs, want 2", got)
	}
	after := time.Now()
	th.kill()

	jl, err := queue.OpenJournal(th.dir, queue.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	at := map[string]int64{}
	for _, rec := range jl.Pending() {
		at[rec.Key] = rec.At
	}
	if got := at[grant[0].Key]; got != grant[0].At {
		t.Fatalf("thief journaled the granted job at %d, want the victim's %d", got, grant[0].At)
	}
	olderSpec := JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: 7}
	canon, err := olderSpec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := at[canon.Key()]; got < before.UnixNano() || got > after.UnixNano() {
		t.Fatalf("thief journaled the older grant at %d, want its adoption time in [%d, %d]", got, before.UnixNano(), after.UnixNano())
	}
}

// A settled job names no thief, however it settles: Status.StolenBy is
// empty once the job is terminal.
func TestSettledStolenJobNamesNoThief(t *testing.T) {
	// A donated job cancelled at its victim settles cancelled. Its
	// follower exits on the settle.
	t.Run("cancelled_at_victim", func(t *testing.T) {
		cc := newRunCounter()
		v, th := newCrashNode(t), newCrashNode(t)
		peers := []string{v.addr, th.addr}
		v.boot(cc, peers, Config{Workers: 1, StealPollInterval: time.Hour}, crashBlockerSeed)
		th.boot(cc, peers, Config{Workers: 1})
		grant, ids := saturateAndGrant(t, v, th.addr)
		id := ids[grant[0].Key]
		if st, err := v.s.Get(id); err != nil || st.StolenBy != th.addr {
			t.Fatalf("granted job reads stolen_by %q (err %v), want %s", st.StolenBy, err, th.addr)
		}
		st, err := v.s.Cancel(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCancelled || st.StolenBy != "" {
			t.Fatalf("cancelled donated job: state %s stolen_by %q, want cancelled and no thief", st.State, st.StolenBy)
		}
	})

	// The victim dies after the intent, with the key's body already in
	// its store (the result landed, the intent's tombstone did not): the
	// replayed intent is served from the store as a cache hit.
	t.Run("replayed_intent_served_locally", func(t *testing.T) {
		cc := newRunCounter()
		st, err := store.Open(t.TempDir(), store.Options{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		v, th := newCrashNode(t), newCrashNode(t)
		peers := []string{v.addr, th.addr}
		cfg := Config{Workers: 1, Store: st, StealPollInterval: time.Hour, RepairInterval: -1}
		v.boot(cc, peers, cfg, crashBlockerSeed)
		grant, _ := saturateAndGrant(t, v, th.addr)
		k := grant[0].Key
		v.kill()
		if err := st.Put(k, json.RawMessage(`{"landed": true}`)); err != nil {
			t.Fatal(err)
		}
		v.boot(cc, peers, cfg, crashBlockerSeed)
		for _, js := range v.s.Jobs() {
			if js.Key != k {
				continue
			}
			if js.State != StateDone || !js.Cached || js.StolenBy != "" {
				t.Fatalf("replayed intent: state %s cached %v stolen_by %q, want a done cache hit with no thief", js.State, js.Cached, js.StolenBy)
			}
			return
		}
		t.Fatalf("no replayed job for the donated key %s", k[:16])
	})
}

// A victim grants from each pool's surplus beyond its own Workers,
// interactive jobs first: with one worker per class, one running job
// and two queued in the interactive pool, and one running and three
// queued in the sweep pool, a steal of two takes the one interactive
// job and one cell, and a steal of ten then takes the one cell left
// over — each pool keeps a pending job for its worker.
func TestStealGrantKeepsEachPoolsShare(t *testing.T) {
	cc := newRunCounter()
	v, th := newCrashNode(t), newCrashNode(t)
	peers := []string{v.addr, th.addr}
	const sweepBlockerSeed = 424245
	v.boot(cc, peers, Config{Workers: 1, StealPollInterval: time.Hour}, crashBlockerSeed, sweepBlockerSeed)
	saturate(t, v)
	if _, err := v.s.SubmitSweep(SweepSpec{
		Base: JobSpec{Protocol: "a", Graph: "pair", Trials: 30},
		Axes: SweepAxes{Seeds: []uint64{sweepBlockerSeed, 2001, 2002, 2003}},
	}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "a cell to occupy the sweep pool", func() bool { return v.s.pool(queue.ClassSweep).running.Load() == 1 })
	// Cancelling each donated job at the end ends its follower, which
	// would otherwise poll the silent thief until the drain deadline.
	var donated []string
	defer func() {
		for _, st := range v.s.Jobs() {
			if slices.Contains(donated, st.Key) {
				v.s.Cancel(st.ID)
			}
		}
	}()
	classes := func(grant []queue.Record) (in, sw int) {
		for _, rec := range grant {
			donated = append(donated, rec.Key)
			if queue.Class(rec.Class) == queue.ClassSweep {
				sw++
			} else {
				in++
			}
		}
		return in, sw
	}
	if in, sw := classes(v.s.stealVictim(2, th.addr)); in != 1 || sw != 1 {
		t.Fatalf("steal of 2 granted %d interactive and %d sweep jobs, want 1 and 1", in, sw)
	}
	if in, sw := classes(v.s.stealVictim(10, th.addr)); in != 0 || sw != 1 {
		t.Fatalf("steal of 10 granted %d interactive and %d sweep jobs, want 0 and 1", in, sw)
	}
	if in, sw := v.s.pool(queue.ClassInteractive).sched.Depth(), v.s.pool(queue.ClassSweep).sched.Depth(); in != 1 || sw != 1 {
		t.Fatalf("pools keep %d interactive and %d sweep jobs pending, want 1 each", in, sw)
	}
}
