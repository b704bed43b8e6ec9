package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"coordattack/internal/causality"
	"coordattack/internal/cliutil"
	"coordattack/internal/fault"
	"coordattack/internal/graph"
	"coordattack/internal/hints"
	"coordattack/internal/mc"
	"coordattack/internal/queue"
	"coordattack/internal/rng"
	"coordattack/internal/run"
	"coordattack/internal/service"
	"coordattack/internal/sim"
	"coordattack/internal/store"
)

// cellMin is the least time one direct measurement runs; BENCH_2's
// 5k-trial cells ran 1–100 ms, too short to keep timer noise out.
const cellMin = 200 * time.Millisecond

// timed runs f(n), doubling n until one call takes at least least, then
// returns the time per unit of n of that call.
func timed(least time.Duration, f func(n int) error) (time.Duration, error) {
	for n := 1; ; n *= 2 {
		t0 := time.Now()
		if err := f(n); err != nil {
			return 0, err
		}
		if el := time.Since(t0); el >= least || n >= 1<<30 {
			return el / time.Duration(n), nil
		}
	}
}

// parsed is a canonical mc spec parsed the way the daemon parses it.
type parsed struct {
	cfg    mc.Config
	g      *graph.G
	rounds int
	inputs []graph.ProcID
	run    *run.Run
}

func parseSpec(c service.JobSpec) (*parsed, error) {
	p, err := cliutil.ParseProtocol(c.Protocol)
	if err != nil {
		return nil, err
	}
	g, err := cliutil.ParseGraph(c.Graph, c.Seed)
	if err != nil {
		return nil, err
	}
	inputs, err := cliutil.ParseInputs(c.Inputs, g)
	if err != nil {
		return nil, err
	}
	out := &parsed{g: g, rounds: c.Rounds, inputs: inputs}
	out.cfg = mc.Config{Protocol: p, Graph: g, Trials: c.Trials, Seed: c.Seed, MaxFailures: c.MaxFailures}
	name, arg, _ := strings.Cut(c.Sampler, ":")
	switch name {
	case "subset":
		out.cfg.Sampler = func(_ uint64, tape *rng.Tape) (*run.Run, error) { return run.RandomSubset(g, c.Rounds, tape) }
	case "loss":
		var pl float64
		if _, err := fmt.Sscanf(arg, "%g", &pl); err != nil {
			return nil, err
		}
		out.cfg.Sampler = func(_ uint64, tape *rng.Tape) (*run.Run, error) {
			return run.RandomLoss(g, c.Rounds, pl, tape, inputs...)
		}
	default:
		if out.run, err = cliutil.ParseRun(c.Run, g, c.Rounds, inputs, c.Seed); err != nil {
			return nil, err
		}
		out.cfg.Run = out.run
	}
	if c.Fault != "" {
		var pf float64
		if _, err := fmt.Sscanf(c.Fault, "rand:%g", &pf); err != nil {
			return nil, err
		}
		plan, err := fault.Sample(c.Seed, 0, g, c.Rounds, fault.SampleConfig{PFault: pf})
		if err != nil {
			return nil, err
		}
		out.cfg.Protocol = fault.Inject(p, plan)
	}
	return out, nil
}

// defaultInputs stand in for a kind of spec a workload does not send,
// so every direct metric is measured on every workload.
func (b *bench) defaultInputs(kind string) []service.JobSpec {
	seed := b.seedBase() + 900_000
	var specs []service.JobSpec
	for i := uint64(0); i < 8; i++ {
		s := service.JobSpec{Protocol: "s:0.1", Graph: "pair", Rounds: 10, Trials: 1000, Seed: seed + i}
		switch kind {
		case "fault":
			s.Fault = "rand:0.3"
		case "sampler":
			s.Sampler = "subset"
		default:
			s.Run = fmt.Sprintf("cut:%d", 3+i%6)
		}
		c, _ := b.canon(s)
		specs = append(specs, c)
	}
	return specs
}

func (b *bench) inputs(kind string) []*parsed {
	specs := b.directInputs[kind]
	if len(specs) == 0 {
		specs = b.defaultInputs(kind)
	}
	var out []*parsed
	for _, s := range specs {
		if s.Engine != service.EngineMC {
			continue
		}
		if p, err := parseSpec(s); err == nil {
			out = append(out, p)
		} else {
			b.fail("direct harness: parsing %+v: %v", s, err)
		}
	}
	return out
}

// direct times the public functions of the layers without a hook, on
// the workload's own inputs. It runs after the daemon has stopped.
func (b *bench) direct() []metric {
	var out []metric
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{Name: name, Value: v, Unit: unit, Note: note})
	}
	failed := func(what string, err error) bool {
		if err != nil {
			b.fail("direct harness: %s: %v", what, err)
		}
		return err != nil
	}
	runtime.GC()

	// service: canonicalization and keying over the request spellings.
	b.mu.Lock()
	spelled := append([]service.JobSpec(nil), b.spelled...)
	var keys []string
	for _, k := range b.keyTrace {
		if len(k) == 64 {
			keys = append(keys, k)
		}
	}
	b.mu.Unlock()
	var spec dist
	for _, s := range spelled {
		t0 := time.Now()
		c, err := s.Canonicalize()
		if err == nil {
			_ = c.Key()
		}
		spec = append(spec, time.Since(t0))
	}
	add("service.spec_us.p50", us(spec.p50()), "us", fmt.Sprintf("%d spellings", len(spec)))

	// service: the LRU on the workload's key trace.
	cache := service.NewCache(1024)
	body := []byte(`{"result":{}}`)
	var get dist
	for _, k := range keys {
		t0 := time.Now()
		_, ok := cache.Get(k)
		get = append(get, time.Since(t0))
		if !ok {
			cache.Put(k, body)
		}
	}
	hits, misses := cache.Stats()
	add("service.cache_get_ns.p50", float64(get.p50()), "ns", fmt.Sprintf("%d gets", len(get)))
	add("service.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", "NewCache(1024) on the window's key trace")

	// queue: scheduler push and pop on the workload's keys.
	if len(keys) > 0 {
		per, err := timed(50*time.Millisecond, func(n int) error {
			s := queue.NewSched(queue.SchedOptions{MaxDepth: 1 << 20})
			for i := 0; i < n; i++ {
				k := keys[i%len(keys)]
				it := &queue.Item{Key: k, Flow: "interactive", Class: queue.ClassInteractive}
				if i%2 == 1 {
					it.Flow, it.Class = fmt.Sprintf("sw%d", i%4), queue.ClassSweep
				}
				if err := s.Push(it); err != nil {
					return err
				}
				if i%64 == 63 {
					for j := 0; j < 64; j++ {
						s.Next()
					}
				}
			}
			return nil
		})
		if !failed("queue.Sched", err) {
			add("queue.sched_op_ns", float64(per), "ns", "one Push plus one Next")
		}
	}

	fixed, faults, samplers := b.inputs("fixed"), b.inputs("fault"), b.inputs("sampler")
	nproc := runtime.GOMAXPROCS(0)
	tps := func(name string, ins []*parsed, workers int) {
		if len(ins) == 0 {
			return
		}
		i := 0
		per, err := timed(cellMin, func(n int) error {
			cfg := ins[i%len(ins)].cfg
			i++
			cfg.Trials, cfg.Workers = 1000*n, workers
			if cfg.MaxFailures > 0 {
				cfg.MaxFailures = cfg.Trials
			}
			_, err := mc.Estimate(cfg)
			return err
		})
		if !failed(name, err) {
			add(name, float64(time.Second)/float64(per)*1000, "trials/s", fmt.Sprintf("mc.Estimate, %d workers", workers))
		}
	}
	tps("mc.fast_tps.1p", fixed, 1)
	tps("mc.fast_tps.np", fixed, nproc)
	tps("mc.mutator_tps.1p", faults, 1)
	tps("mc.sampler_tps.1p", samplers, 1)

	// sim: BENCH_2's cells, at GOMAXPROCS=1 and at nproc engines in
	// parallel.
	for _, proto := range []struct{ name, spec string }{{"s", "s:0.1"}, {"detfull", "detfullinfo"}} {
		for _, gr := range []struct{ name, spec string }{{"pair", "pair"}, {"complete4", "complete:4"}, {"ring6", "ring:6"}} {
			for _, procs := range []int{1, nproc} {
				ns, err := simCell(proto.spec, gr.spec, procs)
				name := fmt.Sprintf("sim.trial_ns.%s-%s.%s", proto.name, gr.name, map[bool]string{true: "1p", false: "np"}[procs == 1])
				if !failed(name, err) {
					add(name, ns, "ns", fmt.Sprintf("%s on %s, 10-round good run, GOMAXPROCS=%d", proto.spec, gr.spec, procs))
				}
			}
		}
	}

	if len(fixed) > 0 {
		out = append(out, b.runLayers(fixed)...)
	}
	if p := append(samplers, fixed...); len(p) > 0 {
		g, n, ins := p[0].g, p[0].rounds, p[0].inputs
		tape := rng.NewTape(b.seed)
		sub, err := timed(50*time.Millisecond, func(k int) error {
			for i := 0; i < k; i++ {
				if _, err := run.RandomSubset(g, n, tape); err != nil {
					return err
				}
			}
			return nil
		})
		if !failed("run.RandomSubset", err) {
			add("run.subset_us", us(sub), "us", "")
		}
		loss, err := timed(50*time.Millisecond, func(k int) error {
			for i := 0; i < k; i++ {
				if _, err := run.RandomLoss(g, n, 0.1, tape, ins...); err != nil {
					return err
				}
			}
			return nil
		})
		if !failed("run.RandomLoss", err) {
			add("run.loss_us", us(loss), "us", "P = 0.1")
		}
	}

	var page rng.SeedPage
	stream := rng.NewStream(b.seed)
	seedPage, _ := timed(50*time.Millisecond, func(k int) error {
		for i := 0; i < k; i++ {
			lo := uint64(i) * rng.DefaultPageTrials
			page.Fill(stream, lo, lo+rng.DefaultPageTrials, 6)
		}
		return nil
	})
	add("rng.seedpage_ns_per_trial", float64(seedPage)/rng.DefaultPageTrials, "ns", "SeedPage.Fill, 6 processes")

	if a, err := hintsAdd(filepath.Join(b.dir, "direct-hints")); !failed("hints.Log.Add", err) {
		add("hints.add_us", us(a), "us", "p50 of Add with fsync")
	}
	var scans []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := store.Open(b.storeDir, store.Options{})
		if failed("store.Open", err) {
			break
		}
		scans = append(scans, ms(time.Since(t0)))
		st.Close()
	}
	add("store.scan_ms", median(scans), "ms", "store.Open over node 0's store after the run, median of 3")
	return out
}

// runLayers times run.Set and sim.Engine loads, and causality's index
// and memo, on the workload's fixed runs.
func (b *bench) runLayers(fixed []*parsed) []metric {
	var out []metric
	set, err := run.NewSet(fixed[0].rounds, fixed[0].g.NumVertices())
	if err != nil {
		return nil
	}
	setLoad, err := timed(50*time.Millisecond, func(k int) error {
		for i := 0; i < k; i++ {
			p := fixed[i%len(fixed)]
			if err := set.Reset(p.rounds, p.g.NumVertices()); err != nil {
				return err
			}
			if err := set.LoadRun(p.run, p.g.NumVertices()); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		out = append(out, metric{Name: "run.set_load_ns", Value: float64(setLoad), Unit: "ns"})
	}
	engines := make([]*sim.Engine, len(fixed))
	for i, p := range fixed {
		if engines[i], err = sim.NewEngine(p.cfg.Protocol, p.g, p.rounds); err != nil {
			return out
		}
	}
	load, err := timed(50*time.Millisecond, func(k int) error {
		for i := 0; i < k; i++ {
			if err := engines[i%len(fixed)].LoadRun(fixed[i%len(fixed)].run); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		out = append(out, metric{Name: "sim.loadrun_ns", Value: float64(load), Unit: "ns"})
	}
	index, _ := timed(50*time.Millisecond, func(k int) error {
		for i := 0; i < k; i++ {
			p := fixed[i%len(fixed)]
			causality.NewIndex(p.run, p.g.NumVertices())
		}
		return nil
	})
	out = append(out, metric{Name: "causality.index_us", Value: us(index), Unit: "us"})
	memo := causality.NewMemo()
	for _, p := range fixed {
		for _, mod := range []bool{false, true} {
			if _, err := memo.Table(p.run, p.g.NumVertices(), mod); err != nil {
				return out
			}
		}
	}
	st := memo.Stats()
	out = append(out, metric{Name: "causality.memo_hit_ratio", Value: ratio(float64(st.Hits), float64(st.Hits+st.Misses)),
		Unit: "ratio", Note: fmt.Sprintf("Memo.Table over %d runs, plain and modified", len(fixed))})
	return out
}

// simCell times sim.Engine.Trial for one protocol on one graph, with
// procs engines running in parallel at GOMAXPROCS=procs; it returns the
// wall time per trial.
func simCell(protoSpec, graphSpec string, procs int) (float64, error) {
	p, err := cliutil.ParseProtocol(protoSpec)
	if err != nil {
		return 0, err
	}
	g, err := cliutil.ParseGraph(graphSpec, 1)
	if err != nil {
		return 0, err
	}
	r, err := run.Good(g, 10, g.Vertices()...)
	if err != nil {
		return 0, err
	}
	engines := make([]*sim.Engine, procs)
	for i := range engines {
		if engines[i], err = sim.NewEngine(p, g, 10); err != nil {
			return 0, err
		}
		if err := engines[i].LoadRun(r); err != nil {
			return 0, err
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	stream := rng.NewStream(7)
	per, err := timed(cellMin, func(n int) error {
		var wg sync.WaitGroup
		errs := make([]error, procs)
		for w := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := 0; t < n; t++ {
					if _, err := engines[w].Trial(stream, uint64(w*n+t)); err != nil {
						errs[w] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	return float64(per) / float64(procs), err
}

// hintsAdd times fsynced hint appends in a scratch log.
func hintsAdd(dir string) (time.Duration, error) {
	defer os.RemoveAll(dir)
	l, err := hints.Open(dir, hints.Options{})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	var d dist
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := l.Add("http://127.0.0.1:1", fmt.Sprintf("%064x", i)); err != nil {
			return 0, err
		}
		d = append(d, time.Since(t0))
	}
	return d.p50(), nil
}
