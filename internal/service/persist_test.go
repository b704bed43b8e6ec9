package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coordattack/internal/mc"
	"coordattack/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestartServesFromStore is the durability acceptance check: a
// result computed before a "crash" (server torn down, new server booted
// over the same store directory) is served as a cache hit, byte for
// byte, with zero engine runs on the new server.
func TestRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Protocol: "s:0.3", Trials: 2000, Seed: 21}

	s1 := New(Config{Workers: 2, Store: openStore(t, dir)})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s1, st.ID, 10*time.Second)
	if fin.State != StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	drain(t, s1)

	// The restart: a fresh process would reopen the same directory.
	s2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	defer drain(t, s2)
	hit, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != StateDone || !hit.Cached {
		t.Fatalf("post-restart submission state %s cached=%v, want done from store", hit.State, hit.Cached)
	}
	if !bytes.Equal(hit.Result, fin.Result) {
		t.Errorf("post-restart result not byte-identical:\n%s\nvs\n%s", hit.Result, fin.Result)
	}
	if runs := s2.Metrics().EngineRuns.Load(); runs != 0 {
		t.Errorf("engine runs after restart = %d, want 0", runs)
	}
	// The disk hit was promoted into the memory LRU: a third submission
	// is a plain memory hit.
	again, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !bytes.Equal(again.Result, fin.Result) {
		t.Error("promoted entry not served from the memory tier")
	}
	if hits, _ := s2.CacheStats(); hits != 1 {
		t.Errorf("memory cache hits = %d, want 1 (the promoted re-hit)", hits)
	}
}

// TestCorruptStoreEntryQuarantinedAndRecomputed flips one byte of the
// persisted entry: the restarted server must quarantine it, miss
// cleanly, recompute — and land on the identical bytes, because results
// are deterministic in the canonical spec.
func TestCorruptStoreEntryQuarantinedAndRecomputed(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Protocol: "s:0.25", Trials: 1500, Seed: 33}

	s1 := New(Config{Workers: 1, Store: openStore(t, dir)})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s1, st.ID, 10*time.Second)
	if fin.State != StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	drain(t, s1)

	// Flip a byte in the middle of the stored body.
	path := filepath.Join(dir, fin.Key[:2], fin.Key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer drain(t, s2)
	st2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached {
		t.Fatal("corrupt entry served as a cache hit")
	}
	fin2 := waitState(t, s2, st2.ID, 10*time.Second)
	if fin2.State != StateDone {
		t.Fatalf("recompute ended %s: %s", fin2.State, fin2.Error)
	}
	if !bytes.Equal(fin2.Result, fin.Result) {
		t.Error("recomputed result differs from the pre-corruption body")
	}
	if runs := s2.Metrics().EngineRuns.Load(); runs != 1 {
		t.Errorf("engine runs = %d, want exactly the one recompute", runs)
	}
	if q := s2.gauges().Store.Quarantined; q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", fin.Key)); err != nil {
		t.Errorf("corrupt entry not preserved in quarantine: %v", err)
	}
}

// panicEngine panics on a marked spec and delegates otherwise, so one
// test server can run poisoned and healthy jobs side by side.
type panicEngine struct {
	inner RunFunc
}

const panicSeed = 666

func (p panicEngine) run(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
	if spec.Seed == panicSeed {
		panic("injected engine fault")
	}
	return p.inner(ctx, spec, workers, progress)
}

// TestWorkerPanicFailsOnlyThatJob injects a panicking engine run and
// checks the blast radius: the poisoned job settles as failed with a
// structured panic error, and the same worker goes on to complete a
// healthy job — the daemon never stops serving.
func TestWorkerPanicFailsOnlyThatJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	s.engines[EngineMC] = panicEngine{inner: runMC}.run

	bad, err := s.Submit(JobSpec{Protocol: "s:0.3", Trials: 500, Seed: panicSeed})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(JobSpec{Protocol: "s:0.3", Trials: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	finBad := waitState(t, s, bad.ID, 10*time.Second)
	if finBad.State != StateFailed {
		t.Fatalf("poisoned job state %s, want failed", finBad.State)
	}
	if !strings.Contains(finBad.Error, "panicked") || !strings.Contains(finBad.Error, "injected engine fault") {
		t.Errorf("poisoned job error %q does not describe the panic", finBad.Error)
	}
	if finBad.Result != nil {
		t.Error("poisoned job carried a result body")
	}

	finGood := waitState(t, s, good.ID, 10*time.Second)
	if finGood.State != StateDone {
		t.Fatalf("healthy job after panic ended %s: %s", finGood.State, finGood.Error)
	}
	if n := s.Metrics().EnginePanics.Load(); n != 1 {
		t.Errorf("engine panics = %d, want 1", n)
	}
	// Failed bodies never reach either cache tier.
	if _, ok := s.cache.Get(finBad.Key); ok {
		t.Error("panicked job entered the memory cache")
	}
}

// TestStoreWriteFailureDegradesToMemoryOnly breaks the store directory
// under a live server: the next completed job must still be served and
// memoized in memory, with the store demoted (gauge flipped) instead of
// the job failing.
func TestStoreWriteFailureDegradesToMemoryOnly(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "store")
	s := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer drain(t, s)

	// Break the disk out from under the daemon.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("disk gone"), 0o644); err != nil {
		t.Fatal(err)
	}

	spec := JobSpec{Protocol: "s:0.3", Trials: 800, Seed: 5}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, st.ID, 10*time.Second)
	if fin.State != StateDone {
		t.Fatalf("job on broken store ended %s: %s", fin.State, fin.Error)
	}
	if !s.gauges().Store.Degraded {
		t.Error("store not reported degraded after write failure")
	}
	// Memory tier still memoizes.
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !bytes.Equal(again.Result, fin.Result) {
		t.Error("memory-only memoization broken after store degradation")
	}
}
