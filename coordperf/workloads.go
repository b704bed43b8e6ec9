package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"coordattack/internal/cliutil"
	"coordattack/internal/fault"
	"coordattack/internal/service"
)

// workload is one traffic mix the benchmark can drive.
type workload struct {
	name string
	why  string
	run  func(b *bench) error
	// tail is the percentile latency_tail_ms reports. It is fixed per
	// workload rather than picked from the request count, so that it does
	// not jump a step between runs whose counts straddle one; each gives
	// at least three blocks of blockQuantile in a window of 20 s.
	tail float64
}

var workloads = []workload{
	{"hot-read", "LRU and store hits on one daemon past the 4096-job retention limit, with spelling variants: the request path (HTTP, spec, cache, job map, store reads) with no engine work", hotRead, 99},
	{"sweep-miss", "one fsync-on daemon runs fixed-run sweeps plus open-loop singleton misses: the mc fast path, sim, rng, queue scheduler, journal and store writes", sweepMiss, 90},
	{"research-mix", "fault, sampler and experiment jobs from two closed-loop clients: mc's reference loop, per-trial run sampling and the causality memo, which sweep-miss never takes", researchMix, 90},
	{"cluster-3", "three clustered nodes on loopback: misses pay a peer fetch and replication, re-reads are peer or replica hits; the cluster layer and peer HTTP traffic", cluster3, 99},
}

// bootTimes is how many times a run boots its daemons; setup_s is the
// median boot.
const bootTimes = 31

// seedBase spreads the engine seeds of one workload seed over a range no
// other workload seed uses, so every run computes fresh keys.
func (b *bench) seedBase() uint64 { return (b.seed%1_000_000)*1_000_000 + 1 }

// restartStore fills dir with n earlier results that the window never
// asks for, so setup_s times a daemon restarting over its own store (a
// scan of n entries) rather than an empty boot, whose two fsyncs make a
// 1 ms figure that swings twofold from run to run.
func (b *bench) restartStore(dir string, n int, salt uint64) error {
	specs := make([]service.JobSpec, n)
	for i := range specs {
		specs[i], _ = b.canon(service.JobSpec{Protocol: "s:0.1", Graph: "pair", Trials: 200, Seed: b.seedBase() + salt + uint64(i)})
	}
	_, err := prepStore(dir, specs)
	return err
}

// hotRead reopens one daemon over a store prepared with a cold universe
// four times the LRU, then has two closed-loop clients alternate a hot
// set that stays in the LRU with a cold cycle that the LRU has always
// evicted by the time it comes round again.
func hotRead(b *bench) error {
	const cold, hot = 4096, 256
	specs := make([]service.JobSpec, cold+hot)
	keys := make([]string, cold+hot)
	base := b.seedBase()
	for i := range specs {
		run := "good"
		if i%2 == 1 {
			run = fmt.Sprintf("cut:%d", 2+(i/2)%5)
		}
		specs[i], keys[i] = b.canon(service.JobSpec{
			Protocol: fmt.Sprintf("s:%g", []float64{0.05, 0.1, 0.2}[i%3]),
			Graph:    "pair",
			Rounds:   []int{8, 10, 12}[(i/3)%3],
			Run:      run,
			Trials:   500,
			Seed:     base + uint64(i),
		})
	}
	b.directInputs = map[string][]service.JobSpec{"fixed": specs[:64]}
	dirs := nodeDirs{store: b.path("store"), queue: b.path("queue")}
	bodies, err := prepStore(dirs.store, specs)
	if err != nil {
		return fmt.Errorf("preparing the store: %w", err)
	}
	for i, body := range bodies {
		if err := b.orc.check(specs[i], keys[i], body); err != nil {
			b.fail("prepared result: %v", err)
		}
	}
	if err := b.setup([]nodeDirs{dirs}, bootTimes); err != nil {
		return err
	}
	url := b.fleet[0].url
	order := rand.New(rand.NewPCG(b.seed, 1))
	coldOrder, hotOrder := order.Perm(cold), order.Perm(hot)
	gen := func(_ int, rng *rand.Rand, i int64) (string, []byte, *rec) {
		idx, path := coldOrder[(i/2)%cold], pathDiskHit
		if i%2 == 0 {
			idx, path = cold+hotOrder[(i/2)%hot], pathMemHit
		}
		return url, b.spell(rng, specs[idx]), &rec{path: path, key: keys[idx]}
	}
	// Warm up in-process: one pass of the cold cycle fills the job map to
	// the retention limit (so every later submission pays its GC) and
	// leaves each cold key at least 3072 insertions from its next use,
	// then the hot set is loaded into the LRU last.
	srv := b.fleet[0].srv
	for _, idx := range coldOrder {
		if _, err := srv.Submit(specs[idx]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for _, idx := range hotOrder {
		if _, err := srv.Submit(specs[cold+idx]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	var next atomic.Int64
	b.window(func() { b.closedLoop(2, &next, func(int64) bool { return !b.open() }, true, gen) })

	var memHits, diskHits int64
	for _, r := range b.recs.all() {
		if r.due < b.winHi && r.path == pathMemHit {
			memHits++
		} else if r.due < b.winHi {
			diskHits++
		}
	}
	d := b.delta()
	b.checks = append(b.checks,
		check{"no engine runs in the window", d.engineRuns == 0, fmt.Sprintf("%d engine runs", d.engineRuns)},
		check{"settled jobs were evicted (past JobRetention)", b.end.evicted > 0, fmt.Sprintf("%d evicted", b.end.evicted)},
		check{"hot keys hit the LRU, cold keys the store", d.storeHits >= diskHits-2 && d.storeHits <= diskHits+2 && d.cacheHits >= memHits-2,
			fmt.Sprintf("cache hits %d for %d hot requests, store hits %d for %d cold requests", d.cacheHits, memHits, d.storeHits, diskHits)},
	)
	hotKeys := make([]string, hot)
	copy(hotKeys, keys[cold:])
	b.finish(hotKeys)
	return nil
}

// sweepMiss runs one fsync-on daemon over empty directories. One client
// keeps a sweep of fresh fixed-run cells in flight (Protocol S over
// rounds × ε × graph, then DetFullInfo over rounds × graph, alternating);
// singleton misses arrive open-loop at a fixed rate beside it.
func sweepMiss(b *bench) error {
	const rate = 20.0 // singleton arrivals per second
	dirs := nodeDirs{store: b.path("store"), queue: b.path("queue")}
	if err := b.restartStore(dirs.store, 1024, 800_000); err != nil {
		return err
	}
	if err := b.setup([]nodeDirs{dirs}, bootTimes); err != nil {
		return err
	}
	url := b.fleet[0].url
	base := b.seedBase()
	graphs := []string{"pair", "complete:4", "ring:6"}
	rounds := []int{6, 8, 10, 12}
	epsilons := []float64{0.05, 0.1, 0.2}
	var fixed []service.JobSpec
	sweepSpec := func(k int) ([]byte, []string) {
		seed := base + 500_000 + uint64(k)
		var ss service.SweepSpec
		protocols := []string{"detfullinfo"}
		ss.Base = service.JobSpec{Run: "good", Trials: 20000, Seed: seed}
		ss.Axes = service.SweepAxes{Graphs: graphs, Rounds: rounds}
		if k%2 == 0 {
			ss.Axes.Epsilon = epsilons
			protocols = nil
			for _, e := range epsilons {
				protocols = append(protocols, fmt.Sprintf("s:%g", e))
			}
		} else {
			ss.Base.Protocol = "detfullinfo"
		}
		var keys []string
		for _, g := range graphs {
			for _, r := range rounds {
				for _, p := range protocols {
					c, key := b.canon(service.JobSpec{Protocol: p, Graph: g, Rounds: r, Run: "good", Trials: 20000, Seed: seed})
					keys = append(keys, key)
					b.markFresh(key)
					if k == 0 && len(fixed) < 64 {
						fixed = append(fixed, c)
					}
				}
			}
		}
		body, err := json.Marshal(ss)
		if err != nil {
			panic(err)
		}
		return body, keys
	}
	single := func(rng *rand.Rand, i int) ([]byte, string) {
		spec := service.JobSpec{
			Protocol: fmt.Sprintf("s:%g", epsilons[i%3]),
			Graph:    []string{"pair", "complete:4"}[(i/3)%2],
			Rounds:   10,
			Run:      fmt.Sprintf("cut:%d", 3+(i/6)%6),
			Trials:   5000,
			Seed:     base + uint64(i),
		}
		c, key := b.canon(spec)
		b.markFresh(key)
		return b.spell(rng, c), key
	}

	var lateness dist
	var lateMu sync.Mutex
	b.window(func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; b.open(); k++ {
				body, keys := sweepSpec(k)
				r := &rec{path: pathSweep, key: fmt.Sprintf("sweep-%d", k), jobs: len(keys), due: b.cl.now()}
				r.traced = b.trace && tracedIndex(int64(k))
				b.cl.sweep(url, body, keys, r)
				b.settle(r, true)
			}
		}()
		// Open loop: arrival i is due at winLo + i/rate whatever the
		// daemon is doing; its latency counts from that due time.
		rng := rand.New(rand.NewPCG(b.seed, 2))
		sem := make(chan struct{}, 64)
		period := time.Duration(float64(time.Second) / rate)
		for i := 0; ; i++ {
			due := b.winLo + int64(i)*int64(period)
			if due >= b.winHi {
				break
			}
			if wait := time.Duration(due - b.cl.now()); wait > 0 {
				time.Sleep(wait)
			}
			body, key := single(rng, i)
			r := &rec{path: pathMiss, key: key, due: due, traced: b.trace && tracedIndex(int64(i))}
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				b.cl.job(url, body, r)
				lateMu.Lock()
				lateness = append(lateness, time.Duration(r.sent-r.due))
				lateMu.Unlock()
				b.settle(r, true)
			}()
		}
		wg.Wait()
	})
	b.checkCells()
	p99 := lateness.quantile(0.99)
	b.extra = append(b.extra, metric{Name: "loadgen.lateness_ms.p99", Value: ms(p99), Unit: "ms",
		Note: fmt.Sprintf("open loop at %.0f/s; %d arrivals", rate, len(lateness))})
	b.checks = append(b.checks, check{"no fault or sampler job", true, "by construction: every cell and singleton is a fault-free fixed-run spec"})
	b.directInputs = map[string][]service.JobSpec{"fixed": fixed}
	b.finish(b.settledKeys(pathMiss))
	return nil
}

// researchMix runs one durable daemon with two closed-loop clients
// sending fresh fault, sampler and experiment jobs in a fixed cycle.
func researchMix(b *bench) error {
	dirs := nodeDirs{store: b.path("store"), queue: b.path("queue")}
	if err := b.restartStore(dirs.store, 1024, 800_000); err != nil {
		return err
	}
	if err := b.setup([]nodeDirs{dirs}, bootTimes); err != nil {
		return err
	}
	url := b.fleet[0].url
	base := b.seedBase()
	mcJob := func(seed uint64, fault, sampler string, trials int) service.JobSpec {
		return service.JobSpec{Protocol: "s:0.1", Graph: "pair", Rounds: 10, Fault: fault, Sampler: sampler, Trials: trials, Seed: seed}
	}
	exp := func(id string, seed uint64) service.JobSpec {
		return service.JobSpec{Engine: service.EngineExperiment, Experiment: id, Quick: true, Trials: 2500, Seed: seed}
	}
	// Trial counts keep the window's jobs well under JobRetention, so the
	// daemon's retention pass never starts partway through a run, and make
	// engine time, not HTTP and polling, most of each job's latency.
	cycle := []func(seed uint64) service.JobSpec{
		func(s uint64) service.JobSpec { return mcJob(s, "rand:0.05", "", 1500) },
		func(s uint64) service.JobSpec { return mcJob(s, "", "subset", 5000) },
		func(s uint64) service.JobSpec { return exp("F1", s) },
		func(s uint64) service.JobSpec { return mcJob(s, "", "loss:0.1", 5000) },
		func(s uint64) service.JobSpec { return mcJob(s, "rand:0.3", "", 1500) },
		func(s uint64) service.JobSpec { return exp("F2", s) },
		func(s uint64) service.JobSpec { return exp("T16", s) },
		func(s uint64) service.JobSpec { return exp("T17", s) },
	}
	var faultJobs, faulty atomic.Int64
	var inputsMu sync.Mutex
	inputs := map[string][]service.JobSpec{}
	gen := func(_ int, rng *rand.Rand, i int64) (string, []byte, *rec) {
		c, key := b.canon(cycle[i%int64(len(cycle))](base + uint64(i)))
		b.markFresh(key)
		kind := "experiment"
		switch {
		case c.Fault != "":
			kind = "fault"
			faultJobs.Add(1)
			if planned(c) {
				faulty.Add(1)
			}
		case c.Sampler != "":
			kind = "sampler"
		}
		inputsMu.Lock()
		if len(inputs[kind]) < 64 {
			inputs[kind] = append(inputs[kind], c)
		}
		inputsMu.Unlock()
		return url, b.spell(rng, c), &rec{path: pathMiss, key: key}
	}
	var next atomic.Int64
	b.window(func() { b.closedLoop(2, &next, func(int64) bool { return !b.open() }, true, gen) })
	b.extra = append(b.extra, metric{Name: "fault.faulty_share", Value: ratio(float64(faulty.Load()), float64(faultJobs.Load())),
		Unit: "ratio", Note: fmt.Sprintf("%d of %d fault jobs sampled a non-empty plan", faulty.Load(), faultJobs.Load())})
	b.directInputs = inputs
	b.finish(b.settledKeys(pathMiss))
	return nil
}

// planned reports whether a rand:P fault job's sampled plan is
// non-empty, the way the daemon samples it.
func planned(c service.JobSpec) bool {
	var p float64
	if _, err := fmt.Sscanf(c.Fault, "rand:%g", &p); err != nil {
		return true
	}
	g, err := cliutil.ParseGraph(c.Graph, c.Seed)
	if err != nil {
		return true
	}
	plan, err := fault.Sample(c.Seed, 0, g, c.Rounds, fault.SampleConfig{PFault: p})
	return err != nil || !plan.Empty()
}

// cluster3 boots three clustered nodes. One closed-loop client sends
// fresh misses to node A; the other reads keys settled at least 100 ms
// earlier from node C, which answers from its own replica (or an earlier
// read) or fetches from a peer.
func cluster3(b *bench) error {
	var dirs []nodeDirs
	for i, n := range []string{"a", "b", "c"} {
		d := nodeDirs{store: b.path(n + "/store"), queue: b.path(n + "/queue")}
		if err := b.restartStore(d.store, 512, 800_000+uint64(i)*1000); err != nil {
			return err
		}
		dirs = append(dirs, d)
	}
	if err := b.setup(dirs, bootTimes); err != nil {
		return err
	}
	a, c := b.fleet[0], b.fleet[2]
	base := b.seedBase()
	type settled struct {
		key string
		at  int64
	}
	var mu sync.Mutex
	var done []settled
	unread := 0 // done[:unread] have been read at least once
	reads := 0
	readBefore := make(map[string]bool)
	peerReads := 0
	var fixed []service.JobSpec
	b.onSettle = func(r *rec) {
		if r.err == "" && r.path == pathMiss {
			mu.Lock()
			done = append(done, settled{r.key, r.end})
			mu.Unlock()
		}
	}
	gen := func(client int, rng *rand.Rand, i int64) (string, []byte, *rec) {
		if client == 0 {
			spec, key := b.canon(service.JobSpec{
				Protocol: fmt.Sprintf("s:%g", []float64{0.05, 0.1, 0.2}[i%3]),
				Graph:    []string{"pair", "complete:4"}[(i/3)%2],
				Rounds:   10,
				Run:      fmt.Sprintf("cut:%d", 3+(i/6)%6),
				Trials:   5000,
				Seed:     base + uint64(i),
			})
			b.markFresh(key)
			mu.Lock()
			if len(fixed) < 64 {
				fixed = append(fixed, spec)
			}
			mu.Unlock()
			return a.url, b.spell(rng, spec), &rec{path: pathMiss, key: key}
		}
		cutoff := b.cl.now() - int64(100*time.Millisecond)
		mu.Lock()
		n := 0
		for n < len(done) && done[n].at <= cutoff {
			n++
		}
		if n == 0 {
			mu.Unlock()
			time.Sleep(time.Millisecond)
			return "", nil, nil
		}
		// Every other read takes the oldest key not read yet, so each
		// settled key is read at least once; the rest re-read at random.
		key := done[rng.IntN(n)].key
		reads++
		if reads%2 == 1 && unread < n {
			key = done[unread].key
			unread++
		}
		path := pathPeerHit
		if readBefore[key] || contains(c.cl.ReplicaSet(key), c.cl.Self()) {
			path = pathMemHit
		} else {
			peerReads++
		}
		readBefore[key] = true
		mu.Unlock()
		return c.url, b.spell(rng, b.spec(key)), &rec{path: path, key: key}
	}
	var next atomic.Int64
	b.window(func() { b.closedLoop(2, &next, func(int64) bool { return !b.open() }, true, gen) })
	var hintsQueued int64
	var breakerOpens int
	for _, n := range b.fleet {
		hintsQueued += n.hl.Stats().Adds
		snap := n.cl.Snapshot()
		for _, p := range snap.Peers {
			if p.Breaker != "closed" {
				breakerOpens++
			}
		}
		for _, rq := range snap.Requests {
			if rq.Outcome == "open" {
				breakerOpens += int(rq.Count)
			}
		}
	}
	b.extra = append(b.extra,
		metric{Name: "cluster.steals", Value: float64(b.end.stolen - b.start.stolen), Unit: "count"},
		metric{Name: "cluster.breaker_opens", Value: float64(breakerOpens), Unit: "count", Note: "peers not closed at the end plus requests refused by an open breaker"},
		metric{Name: "hints.queued", Value: float64(hintsQueued), Unit: "count"},
	)
	b.checks = append(b.checks,
		check{"no hints queued", hintsQueued == 0, fmt.Sprintf("%d hints", hintsQueued)},
		check{"no breaker opened", breakerOpens == 0, fmt.Sprintf("%d", breakerOpens)},
	)
	b.directInputs = map[string][]service.JobSpec{"fixed": fixed}
	b.finish(b.settledKeys(pathMiss))
	// Only the reading client submits to node C, so once the fleet has
	// drained, C's peer hits are exactly its reads that fetched from a peer.
	peerHits := c.srv.Metrics().PeerHits.Load()
	b.checks = append(b.checks, check{"re-reads took the path their replica set predicts", peerHits == int64(peerReads),
		fmt.Sprintf("node C answered %d reads from a peer; the replica sets predicted %d", peerHits, peerReads)})
	return nil
}
