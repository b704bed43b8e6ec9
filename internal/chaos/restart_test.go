package chaos

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"coordattack/internal/mc"
	"coordattack/internal/queue"
	"coordattack/internal/service"
)

// latestSegment returns the newest journal segment in dir — the one a
// crash mid-append would have torn.
func latestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".wal" {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no journal segments on disk")
	}
	sort.Strings(segs)
	return filepath.Join(dir, segs[len(segs)-1])
}

// TestSoakCrashRestartRequeueExactlyOnce is the crash soak for the
// durable pending queue: a daemon is "killed" (abandoned un-drained)
// with a non-empty backlog — a running gate job in each worker pool
// (an interactive job and the first cell of a four-cell sweep), three
// accepted singletons and the sweep's other cells, all journaled and
// none finished — and the crash additionally tears the journal's final
// append mid-line. A
// second daemon over the same queue directory must:
//
//   - recover every fully-written accept (the torn tail is dropped,
//     counted in coordd_queue_journal_truncated_total, and loses no
//     intact record);
//   - re-admit the backlog, sweep cells and singletons alike, keeping
//     each record's class;
//   - settle every replayed job done exactly once: engine runs equal
//     the number of distinct keys, and the journal ends empty.
func TestSoakCrashRestartRequeueExactlyOnce(t *testing.T) {
	qdir := filepath.Join(t.TempDir(), "queue")
	j1, err := queue.OpenJournal(qdir, queue.JournalOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j1.Close)
	block := make(chan struct{})
	srv1 := service.New(service.Config{
		Workers:          1,
		Journal:          j1,
		WatchdogInterval: -1,
		WrapEngine: func(name string, next service.RunFunc) service.RunFunc {
			return func(ctx context.Context, spec service.JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
				if spec.Seed == 666 || spec.Seed == 201 {
					<-block
				}
				return next(ctx, spec, workers, progress)
			}
		},
	})

	// The gate job holds the interactive pool's only worker, and the
	// sweep's first cell (seed 201) will hold the sweep pool's, so
	// everything after them stays accepted-but-unstarted.
	gate, err := srv1.Submit(soakSpec(666))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning := time.Now().Add(5 * time.Second)
	for {
		st, err := srv1.Get(gate.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateRunning {
			break
		}
		if time.Now().After(waitRunning) {
			t.Fatalf("gate job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := srv1.Submit(soakSpec(seed)); err != nil {
			t.Fatalf("singleton seed %d: %v", seed, err)
		}
	}
	if _, err := srv1.SubmitSweep(service.SweepSpec{
		Base: soakSpec(0),
		Axes: service.SweepAxes{Seeds: []uint64{201, 202, 203, 204}},
	}); err != nil {
		t.Fatal(err)
	}
	// The sweep dispatcher is asynchronous; wait for all 8 accepts
	// (gate + 3 singletons + 4 cells) to reach the journal.
	const backlog = 8
	waitJournal := time.Now().Add(10 * time.Second)
	for j1.Stats().Pending != backlog {
		if time.Now().After(waitJournal) {
			t.Fatalf("journal pending = %d, want %d", j1.Stats().Pending, backlog)
		}
		time.Sleep(time.Millisecond)
	}
	keys := make(map[string]bool)
	for _, st := range srv1.Jobs() {
		keys[st.Key] = true
	}
	if len(keys) != backlog {
		t.Fatalf("accepted %d distinct keys, want %d", len(keys), backlog)
	}

	// Crash. srv1 is abandoned un-drained with its journal handle open,
	// exactly as SIGKILL leaves a process; on top, the final append is
	// torn mid-line.
	t.Cleanup(func() {
		close(block)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv1.Drain(ctx)
	})
	seg := latestSegment(t, qdir)
	torn := []byte("coordd-queue/v1 0f0f0f {\"op\":\"accept\",\"key\":\"torn-midwri")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart: reopen the journal, verify recovery, bring up a fresh
	// daemon over it and let the backlog drain.
	j2, err := queue.OpenJournal(qdir, queue.JournalOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j2.Close)
	if st := j2.Stats(); st.Pending != backlog || st.Truncated != 1 {
		t.Fatalf("recovered pending=%d truncated=%d, want %d/1", st.Pending, st.Truncated, backlog)
	}
	classes := map[string]int{}
	for _, r := range j2.Pending() {
		if !keys[r.Key] {
			t.Fatalf("journal replayed unknown key %q", r.Key)
		}
		classes[r.Class]++
	}
	if classes[string(queue.ClassInteractive)] != 4 || classes[string(queue.ClassSweep)] != 4 {
		t.Fatalf("replayed classes = %v, want 4 interactive + 4 sweep", classes)
	}

	srv2 := service.New(service.Config{Workers: 3, Journal: j2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv2.Drain(ctx)
	}()
	if got := srv2.Metrics().QueueReplayed.Load(); got != backlog {
		t.Fatalf("queue_replayed_total = %d, want %d", got, backlog)
	}
	waitSettle := time.Now().Add(30 * time.Second)
	for {
		jobs := srv2.Jobs()
		settled := 0
		for _, st := range jobs {
			if st.State.Terminal() {
				settled++
			}
		}
		if len(jobs) == backlog && settled == backlog {
			for _, st := range jobs {
				if st.State != service.StateDone {
					t.Fatalf("replayed job %s settled %s: %s", st.ID, st.State, st.Error)
				}
				if !keys[st.Key] {
					t.Fatalf("replayed job %s has unknown key %s", st.ID, st.Key)
				}
			}
			break
		}
		if time.Now().After(waitSettle) {
			t.Fatalf("backlog did not settle: %d jobs, %d settled", len(jobs), settled)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Exactly once: one engine run per distinct key, nothing lost,
	// nothing left in the journal to resurrect on a third boot.
	if runs := srv2.Metrics().EngineRuns.Load(); runs != backlog {
		t.Fatalf("engine runs after replay = %d, want %d", runs, backlog)
	}
	if failed, cancelled := srv2.Metrics().JobsFailed.Load(), srv2.Metrics().JobsCancelled.Load(); failed != 0 || cancelled != 0 {
		t.Fatalf("failed=%d cancelled=%d after replay, want 0/0", failed, cancelled)
	}
	// A job shows settled before its settle writes the tombstone; Drain
	// waits out the workers, so every tombstone has landed after it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := j2.Stats(); st.Pending != 0 {
		t.Fatalf("journal pending = %d after settlement, want 0", st.Pending)
	}
}
