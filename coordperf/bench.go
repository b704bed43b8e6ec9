package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coordattack/internal/service"
	"coordattack/internal/store"
)

// bench is one run of one workload: the daemon fleet it booted, the
// requests its load generator sent, and what the run measured.
type bench struct {
	name    string
	seed    uint64
	seconds time.Duration
	tailPct float64
	trace   bool
	dir     string
	epoch   time.Time
	tr      *tracer
	cl      *client
	orc     *oracle
	recs    recorder

	setups       []time.Duration
	fleet        fleet
	storeDir     string // node 0's store, scanned by the direct harness
	winLo, winHi int64
	start, end   snapshot
	heapLive     float64 // bytes
	// onSettle, when set, sees every settled request (after the oracle).
	onSettle func(*rec)

	mu       sync.Mutex
	specs    map[string]service.JobSpec // canonical spec by key
	fresh    map[string]bool            // keys sent as never-computed jobs
	spelled  []service.JobSpec          // request specs as the daemon decodes them
	keyTrace []string                   // keys in request order

	// fails are correctness failures not tied to one request.
	fails []string
	// Filled by finish: the replay's HTTP round trips and direct submits,
	// and the fleet's engine runs over the whole run.
	httpRTT, submitD dist
	engineRuns       int64
	// Filled by the workload for the report.
	extra  []metric
	checks []check
	// directInputs are the workload's own specs by kind, for the
	// direct-call layer harness.
	directInputs map[string][]service.JobSpec
}

// check is one prediction or correctness condition of a run.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

const maxSpelled = 4096

func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// canon canonicalizes spec, remembers it under its key, and returns the
// canonical spec and key.
func (b *bench) canon(spec service.JobSpec) (service.JobSpec, string) {
	c, err := spec.Canonicalize()
	if err != nil {
		panic(fmt.Sprintf("generated spec %+v does not canonicalize: %v", spec, err))
	}
	key := c.Key()
	b.mu.Lock()
	b.specs[key] = c
	b.mu.Unlock()
	return c, key
}

func (b *bench) spec(key string) service.JobSpec {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.specs[key]
}

func (b *bench) markFresh(key string) {
	b.mu.Lock()
	b.fresh[key] = true
	b.mu.Unlock()
}

// spell renders a canonical spec as a request body in one of its
// equivalent spellings: case, surrounding whitespace, and defaults
// omitted or written out. The daemon must canonicalize every spelling
// to the same key.
func (b *bench) spell(rng *rand.Rand, c service.JobSpec) []byte {
	m := map[string]any{}
	pick := func(opts ...any) any { return opts[rng.IntN(len(opts))] }
	set := func(name string, v any) {
		if v != nil {
			m[name] = v
		}
	}
	upperName := func(s string) string {
		name, args, ok := strings.Cut(s, ":")
		if !ok {
			return strings.ToUpper(s)
		}
		return strings.ToUpper(name) + ":" + args
	}
	if c.Engine == service.EngineExperiment {
		m["engine"] = pick("experiment", " Experiment")
		m["experiment"] = pick(c.Experiment, strings.ToLower(c.Experiment)+" ")
		m["quick"] = c.Quick
		m["trials"] = c.Trials
		m["seed"] = c.Seed
	} else {
		set("engine", pick(nil, "mc", " MC"))
		m["protocol"] = pick(c.Protocol, upperName(c.Protocol), " "+c.Protocol+"\t")
		if c.Graph == "pair" {
			set("graph", pick(nil, "pair", "PAIR "))
		} else {
			m["graph"] = pick(c.Graph, upperName(c.Graph))
		}
		if c.Rounds == 10 {
			set("rounds", pick(nil, 10))
		} else {
			m["rounds"] = c.Rounds
		}
		set("inputs", pick(nil, "all", " ALL"))
		switch {
		case c.Sampler != "":
			m["sampler"] = pick(c.Sampler, " "+upperName(c.Sampler))
		case c.Run == "good":
			set("run", pick(nil, "good", "Good"))
		default:
			m["run"] = pick(c.Run, upperName(c.Run))
		}
		if c.Fault != "" {
			m["fault"] = pick(c.Fault, upperName(c.Fault))
			set("max_failures", pick(nil, c.MaxFailures))
		} else {
			set("fault", pick(nil, "none"))
		}
		m["trials"] = c.Trials
		m["seed"] = c.Seed
	}
	body, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	b.mu.Lock()
	full := len(b.spelled) >= maxSpelled
	b.mu.Unlock()
	var decoded service.JobSpec
	if !full && json.Unmarshal(body, &decoded) == nil {
		b.mu.Lock()
		b.spelled = append(b.spelled, decoded)
		b.mu.Unlock()
	}
	return body
}

// tracedIndex picks about half the requests of a traced run, by a hash
// of the request index so that no workload's request pattern aligns
// with it.
func tracedIndex(i int64) bool { return (uint64(i)*0x9E3779B97F4A7C15)>>63 == 1 }

// genFunc builds request i for client c: the daemon URL, the body, and a
// rec with path and key set.
type genFunc func(c int, rng *rand.Rand, i int64) (string, []byte, *rec)

// closedLoop runs clients closed-loop clients, each sending its next
// request when the previous one settles, until stop is true for the next
// request index. Requests are recorded only when record is set.
func (b *bench) closedLoop(clients int, next *atomic.Int64, stop func(int64) bool, record bool, gen genFunc) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewPCG(b.seed, uint64(1000+c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if stop(i) {
					return
				}
				base, body, r := gen(c, rng, i)
				if r == nil {
					continue
				}
				r.due = b.cl.now()
				r.traced = b.trace && tracedIndex(i)
				b.cl.job(base, body, r)
				b.settle(r, record)
			}
		}()
	}
	wg.Wait()
}

// fail records a correctness failure not tied to one request.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(os.Stderr, "coordperf: %s: %s\n", b.name, msg)
	b.mu.Lock()
	b.fails = append(b.fails, msg)
	b.mu.Unlock()
}

// settle runs the oracle on a settled request and records it.
func (b *bench) settle(r *rec, record bool) {
	if r.err == "" && r.body != nil {
		if err := b.orc.check(b.spec(r.key), r.key, r.body); err != nil {
			r.err = "output check: " + err.Error()
		}
	}
	if r.err != "" {
		fmt.Fprintf(os.Stderr, "coordperf: %s request %s (%s): %s\n", b.name, r.id, r.path, r.err)
	}
	if b.onSettle != nil {
		b.onSettle(r)
	}
	if record {
		b.mu.Lock()
		b.keyTrace = append(b.keyTrace, r.key)
		b.mu.Unlock()
		b.recs.add(r)
	}
}

// setup boots the fleet over dirs times times, keeping the last boot;
// each boot is timed from opening the directories until every node
// answers /healthz.
func (b *bench) setup(dirs []nodeDirs, times int) error {
	b.storeDir = dirs[0].store
	for i := 0; i < times; i++ {
		t0 := time.Now()
		f, err := bootFleet(b.cl.hc, dirs, b.tr)
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		b.setups = append(b.setups, time.Since(t0))
		if i < times-1 {
			f.stop()
			continue
		}
		b.fleet = f
	}
	return nil
}

// snapshot is the daemon and tracer counters at one instant.
type snapshot struct {
	engineRuns, trials, cacheHits, storeHits int64
	evicted, coalesced, submitted, stolen    int64
	counts                                   map[string]int64
	totals                                   map[string]time.Duration
}

func (b *bench) snapshot() snapshot {
	var s snapshot
	for _, n := range b.fleet {
		m := n.srv.Metrics()
		s.engineRuns += m.EngineRuns.Load()
		s.trials += m.TrialsExecuted.Load()
		s.evicted += m.JobsEvicted.Load()
		s.coalesced += m.JobsCoalesced.Load()
		s.submitted += m.JobsSubmitted.Load()
		s.stolen += m.JobsStolen.Load()
		h, _ := n.srv.CacheStats()
		s.cacheHits += h
		s.storeHits += n.st.Stats().Hits
	}
	if b.tr != nil {
		b.tr.mu.Lock()
		s.counts = make(map[string]int64, len(b.tr.counts))
		s.totals = make(map[string]time.Duration, len(b.tr.totals))
		for k, v := range b.tr.counts {
			s.counts[k] = v
		}
		for k, v := range b.tr.totals {
			s.totals[k] = v
		}
		b.tr.mu.Unlock()
	}
	return s
}

// window opens the timed window, runs load (which returns once every
// request it sent has settled), and closes the window seconds after it
// opened, snapshotting the counters at both ends. In between it samples
// the live Go heap (as marked by the last GC) every 5 ms and keeps the
// median sample: a peak would be set by whichever GC happened to land
// while a large transient (an experiment's tables, a sweep's rows) was
// live, and moves by a fifth from run to run on a heap of a few MiB.
func (b *bench) window(load func()) {
	b.winLo = b.cl.now()
	b.winHi = b.winLo + int64(b.seconds)
	b.start = b.snapshot()
	stop := make(chan struct{})
	live := make(chan float64, 1)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var samples []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			samples = append(samples, float64(sample[0].Value.Uint64()))
			select {
			case <-stop:
				live <- median(samples)
				return
			case <-tick.C:
			}
		}
	}()
	ends := make(chan snapshot, 1)
	time.AfterFunc(b.seconds, func() {
		ends <- b.snapshot()
		close(stop)
	})
	load()
	b.end = <-ends
	b.heapLive = <-live
}

// open reports whether the window is still open.
func (b *bench) open() bool { return b.cl.now() < b.winHi }

// replay re-submits up to n of keys over HTTP to node 0, each of which
// must come back settled from the cache with the bytes served before.
// In a traced run it also times a direct Server.Submit of the same spec
// right after each HTTP round trip, so the two can be split.
func (b *bench) replay(keys []string, n int) (httpRTT, submit dist) {
	if len(keys) > n {
		keys = keys[len(keys)-n:]
	}
	node := b.fleet[0]
	rng := rand.New(rand.NewPCG(b.seed, 7))
	for _, key := range keys {
		body := b.spell(rng, b.spec(key))
		r := &rec{key: key, due: b.cl.now()}
		b.cl.job(node.url, body, r)
		b.settle(r, false)
		if r.err != "" {
			b.fail("replay of %s: %s", key, r.err)
		} else if r.polls > 0 {
			b.fail("replay of settled key %s was not answered from the cache", key)
		}
		httpRTT = append(httpRTT, time.Duration(r.end-r.sent))
		if !b.trace {
			continue
		}
		var spec service.JobSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			b.fail("replay spec: %v", err)
			continue
		}
		t0 := time.Now()
		st, err := node.srv.Submit(spec)
		submit = append(submit, time.Since(t0))
		if err != nil || st.State != service.StateDone || st.Key != key {
			b.fail("direct Submit of settled key %s: %v", key, err)
		}
	}
	return httpRTT, submit
}

// settledKeys lists the keys of settled single-job requests on path, in
// settle order, without repeats.
func (b *bench) settledKeys(paths ...string) []string {
	recs := b.recs.all()
	sort.Slice(recs, func(i, j int) bool { return recs[i].end < recs[j].end })
	seen := make(map[string]bool)
	var keys []string
	for _, r := range recs {
		if r.err != "" || r.jobs != 1 || seen[r.key] || !contains(paths, r.path) {
			continue
		}
		seen[r.key] = true
		keys = append(keys, r.key)
	}
	return keys
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// checkCells runs the oracle over every cell of the recorded sweeps,
// reading the cell results through the daemon's job API.
func (b *bench) checkCells() {
	node := b.fleet[0]
	for _, r := range b.recs.all() {
		for _, id := range r.cellIDs {
			st, err := node.srv.Get(id)
			if err != nil || st.State != service.StateDone {
				b.fail("sweep %s cell %s: not done (%v)", r.id, id, err)
				continue
			}
			if err := b.orc.check(b.spec(st.Key), st.Key, compact(st.Result)); err != nil {
				b.fail("sweep %s cell %s: %v", r.id, id, err)
			}
		}
	}
}

// noSyncFS is the disk filesystem without fsyncs, used only to prepare
// a workload's directories, which is not timed.
type noSyncFS struct{ store.FS }

func (f noSyncFS) CreateTemp(dir, pattern string) (store.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ store.File }

func (noSyncFile) Sync() error { return nil }

// prepStore computes specs with an in-process daemon writing through to
// a store at dir, and returns each spec's compacted result body.
func prepStore(dir string, specs []service.JobSpec) ([][]byte, error) {
	st, err := store.Open(dir, store.Options{FS: noSyncFS{store.DiskFS()}})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	srv := service.New(service.Config{
		QueueDepth:       len(specs) + 1,
		JobRetention:     len(specs) + 1,
		Store:            st,
		WatchdogInterval: -1,
	})
	ids := make([]string, len(specs))
	for i, s := range specs {
		stat, err := srv.Submit(s)
		if err != nil {
			return nil, err
		}
		ids[i] = stat.ID
	}
	bodies := make([][]byte, len(specs))
	for i, id := range ids {
		for {
			stat, err := srv.Get(id)
			if err != nil {
				return nil, err
			}
			if stat.State.Terminal() {
				if stat.State != service.StateDone {
					return nil, fmt.Errorf("preparing %s: job settled %s: %s", stat.Key, stat.State, stat.Error)
				}
				bodies[i] = compact(stat.Result)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return bodies, srv.Drain(ctx)
}
