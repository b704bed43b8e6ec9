package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/mc"
	"coordattack/internal/queue"
	"coordattack/internal/store"
)

// The anti-entropy repair loop: a node whose store holds bodies its
// replica peers are missing must probe them (HEAD) and push exactly the
// missing ones, resuming its cursor across batch-bounded passes.
func TestRepairPassHealsMissingReplicas(t *testing.T) {
	shA, shB := &swapHandler{}, &swapHandler{}
	srvA := httptest.NewServer(shA)
	srvB := httptest.NewServer(shB)
	defer srvA.Close()
	defer srvB.Close()

	st, err := store.Open(t.TempDir(), store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	mk := func(self string, cfg Config) *Server {
		cl, err := cluster.New(cluster.Options{
			Self:    self,
			Peers:   []string{srvA.URL, srvB.URL},
			Timeout: 500 * time.Millisecond,
			Logf:    t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cluster = cl
		cfg.WatchdogInterval = -1
		cfg.StealInterval = -1
		s := New(cfg)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Drain(ctx)
		})
		return s
	}
	// RepairInterval -1: the test drives passes by hand, synchronously.
	a := mk(srvA.URL, Config{Workers: 1, Store: st, RepairInterval: -1, repairBatch: 2})
	b := mk(srvB.URL, Config{Workers: 1, RepairInterval: -1})
	shA.set(a.Handler())
	shB.set(b.Handler())

	// Three bodies durable on A only. Factor 2 over two members puts B in
	// every key's replica set, so all three are under-replicated.
	keys := make([]string, 3)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i+1)
		if err := st.Put(keys[i], json.RawMessage(fmt.Sprintf(`{"n":%d}`, i+1))); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	scanned, repaired := a.repairPass(ctx)
	if scanned != 2 || repaired != 2 {
		t.Fatalf("pass 1: scanned=%d repaired=%d, want 2/2 (batch bound)", scanned, repaired)
	}
	// Pass 2 resumes after the cursor: the one remaining key is pushed,
	// the wrap-around re-probe of an already-healed key pushes nothing.
	scanned, repaired = a.repairPass(ctx)
	if scanned != 2 || repaired != 1 {
		t.Fatalf("pass 2: scanned=%d repaired=%d, want 2/1 (cursor resume)", scanned, repaired)
	}
	for _, k := range keys {
		if !nodeHasResult(srvB.URL, k) {
			t.Fatalf("replica %s still missing key %s after repair", srvB.URL, k[:16])
		}
	}
	if got := a.Metrics().ReplicaRepairs.Load(); got != 3 {
		t.Fatalf("replica repairs = %d, want 3", got)
	}
	// A healed cluster repairs nothing more.
	if _, repaired = a.repairPass(ctx); repaired != 0 {
		t.Fatalf("steady-state pass repaired %d, want 0", repaired)
	}

	// The admin endpoint surfaces the replication summary next to the
	// ring snapshot (self/peers stay top-level).
	adm := httpGetJSON(t, srvA.URL+"/v1/admin/cluster")
	if adm["self"] != cluster.NormalizeAddr(srvA.URL) {
		t.Fatalf("admin self = %v", adm["self"])
	}
	rep, ok := adm["replication"].(map[string]any)
	if !ok {
		t.Fatalf("admin endpoint missing replication summary: %v", adm)
	}
	if rep["local_keys"] != float64(3) || rep["repairs"] != float64(3) {
		t.Fatalf("replication summary = %v, want local_keys=3 repairs=3", rep)
	}
	if rep["repair_runs"] != float64(3) {
		t.Fatalf("repair_runs = %v, want 3", rep["repair_runs"])
	}
}

// The 429 Retry-After estimate is per scheduling class: a backlog of
// multi-minute sweep cells must not inflate an interactive client's
// backoff, and vice versa.
func TestRetryAfterPerClass(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{
		Workers:          1,
		WatchdogInterval: -1,
		WrapEngine: func(engine string, next RunFunc) RunFunc {
			return func(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return next(ctx, spec, workers, progress)
			}
		},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	defer close(gate) // LIFO: release the blocker before draining

	// Gated blockers pin both pools' workers; then 2 interactive and 3
	// sweep jobs queue behind them.
	sweepJob := func(seed uint64) {
		t.Helper()
		spec, err := JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: seed}.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.submit(s.newJob(spec, spec.Key(), queue.ClassSweep, "sweep:test"), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: 9000}); err != nil {
		t.Fatal(err)
	}
	sweepJob(9006)
	waitUntil(t, "blockers to occupy both pools", func() bool {
		return s.pool(queue.ClassInteractive).running.Load() == 1 && s.pool(queue.ClassSweep).running.Load() == 1
	})
	for seed := uint64(9001); seed <= 9002; seed++ {
		if _, err := s.Submit(JobSpec{Protocol: "a", Graph: "pair", Trials: 30, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(9003); seed <= 9005; seed++ {
		sweepJob(seed)
	}

	// Observed history: interactive jobs take ~1 s, sweep cells ~100 s.
	s.metrics.ObserveJobSeconds(1.0, queue.ClassInteractive)
	s.metrics.ObserveJobSeconds(100.0, queue.ClassSweep)

	secsI, depth, capacity := s.retryAfter(queue.ClassInteractive)
	secsS, _, _ := s.retryAfter(queue.ClassSweep)
	if depth != 5 || capacity != 64 {
		t.Fatalf("depth=%d capacity=%d, want 5/64", depth, capacity)
	}
	// interactive: ceil((2+1)/1 × 1 s) = 3; sweep: ceil((3+1)/1 × 100 s)
	// = 400, clamped to the 300 s ceiling.
	if secsI != 3 {
		t.Fatalf("interactive Retry-After = %d, want 3", secsI)
	}
	if secsS != 300 {
		t.Fatalf("sweep Retry-After = %d, want 300 (clamped)", secsS)
	}

	// A class with no completions yet borrows the overall mean rather
	// than defaulting to the 1 s floor.
	m := NewMetrics()
	m.ObserveJobSeconds(40, queue.ClassInteractive)
	if got := m.MeanJobSecondsClass(queue.ClassSweep); got != 40 {
		t.Fatalf("unobserved class mean = %g, want overall mean 40", got)
	}
}
