package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"coordattack/internal/cliutil"
	"coordattack/internal/graph"
	"coordattack/internal/mc"
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	runpkg "coordattack/internal/run"
	"coordattack/internal/sim"
)

// benchReport is the machine-readable output of -bench: the throughput
// baseline checked in as BENCH_N.json. The kind string is versioned so
// later baselines can change shape without ambiguity.
type benchReport struct {
	Kind          string       `json:"kind"`
	Go            string       `json:"go"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	TrialsPerCell int          `json:"trials_per_cell"`
	Results       []benchPoint `json:"results"`
}

type benchPoint struct {
	Protocol     string  `json:"protocol"`
	Graph        string  `json:"graph"`
	Engine       string  `json:"engine"`
	Trials       int     `json:"trials"`
	Seconds      float64 `json:"seconds"`
	TrialsPerSec float64 `json:"trials_per_sec"`
}

// benchMatrix is the fixed protocol × graph × engine grid every
// baseline measures, so BENCH files stay comparable across commits.
// Protocol A is pair-only, so the protocols here are the ones defined
// on arbitrary graphs: the paper's randomized S (ε = 0.1) and the
// deterministic full-information baseline.
var (
	benchProtocols = []string{"s:0.1", "detfullinfo"}
	benchGraphs    = []string{"pair", "complete:4", "ring:6"}
	benchEngines   = []string{"sim", "concurrent", "mc"}
)

const benchRounds = 10

// runBench measures Monte-Carlo trial throughput over the fixed matrix
// and writes one JSON report. The "sim" engine is the sequential
// simulator, "concurrent" the goroutine-per-process channel engine, and
// "mc" the full estimator with its trial-level parallelism — so the
// three rows per cell separate simulator cost, concurrency overhead,
// and estimator scaling. The "sim" and "mc" rows use the zero-alloc
// engine when the protocol provides one (every matrix protocol does),
// falling back to the reference loop otherwise — the same dispatch
// mc.Estimate performs internally. The "concurrent" row always times
// sim.ConcurrentOutputs, as BENCH_1 did. When baselinePath names an
// earlier BENCH_N.json, the run additionally gates on it: any cell
// slower than maxSlowdown × its baseline throughput fails the run.
func runBench(trials int, seed uint64, baselinePath string, maxSlowdown float64, out io.Writer) int {
	if trials <= 0 {
		trials = 5000
	}
	if seed == 0 {
		seed = 1992
	}
	report := benchReport{
		Kind:          "coordbench-bench/v1",
		Go:            runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		TrialsPerCell: trials,
	}
	for _, proto := range benchProtocols {
		p, err := cliutil.ParseProtocol(proto)
		if err != nil {
			fmt.Fprintf(out, "coordbench: %v\n", err)
			return 1
		}
		for _, gspec := range benchGraphs {
			g, err := cliutil.ParseGraph(gspec, seed)
			if err != nil {
				fmt.Fprintf(out, "coordbench: %v\n", err)
				return 1
			}
			inputs, err := cliutil.ParseInputs("all", g)
			if err != nil {
				fmt.Fprintf(out, "coordbench: %v\n", err)
				return 1
			}
			r, err := cliutil.ParseRun("good", g, benchRounds, inputs, seed)
			if err != nil {
				fmt.Fprintf(out, "coordbench: %v\n", err)
				return 1
			}
			for _, eng := range benchEngines {
				var secs float64
				switch eng {
				case "sim", "concurrent":
					stream := rng.NewStream(seed)
					if eng == "sim" {
						secs, err = benchSim(p, g, r, stream, trials)
					} else {
						secs, err = benchConcurrent(p, g, r, stream, trials)
					}
					if err != nil {
						fmt.Fprintf(out, "coordbench: %s %s %s: %v\n", proto, gspec, eng, err)
						return 1
					}
				case "mc":
					start := time.Now()
					if _, err := mc.Estimate(mc.Config{
						Protocol: p,
						Graph:    g,
						Run:      r,
						Trials:   trials,
						Seed:     seed,
					}); err != nil {
						fmt.Fprintf(out, "coordbench: %s %s mc: %v\n", proto, gspec, err)
						return 1
					}
					secs = time.Since(start).Seconds()
				}
				tps := 0.0
				if secs > 0 {
					tps = float64(trials) / secs
				}
				report.Results = append(report.Results, benchPoint{
					Protocol:     proto,
					Graph:        gspec,
					Engine:       eng,
					Trials:       trials,
					Seconds:      secs,
					TrialsPerSec: tps,
				})
			}
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return 1
	}
	if baselinePath != "" {
		if err := checkBaseline(report, baselinePath, maxSlowdown); err != nil {
			fmt.Fprintf(os.Stderr, "coordbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "coordbench: all cells within %gx of %s\n", maxSlowdown, baselinePath)
	}
	return 0
}

// benchSim times the sequential engines: the zero-alloc Engine when the
// protocol has one, the reference loop otherwise.
func benchSim(p protocol.Protocol, g *graph.G, r *runpkg.Run, stream rng.Stream, trials int) (float64, error) {
	eng, err := sim.NewEngine(p, g, r.N())
	if errors.Is(err, sim.ErrNoFastPath) {
		start := time.Now()
		for t := 0; t < trials; t++ {
			if _, err := sim.Outputs(p, g, r, sim.StreamTapes(stream, uint64(t))); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
	if err != nil {
		return 0, err
	}
	if err := eng.LoadRun(r); err != nil {
		return 0, err
	}
	start := time.Now()
	for t := 0; t < trials; t++ {
		if _, err := eng.Trial(stream, uint64(t)); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// benchConcurrent times the goroutine-per-process channel engine,
// sim.ConcurrentOutputs, which builds its goroutines and channels per
// trial.
func benchConcurrent(p protocol.Protocol, g *graph.G, r *runpkg.Run, stream rng.Stream, trials int) (float64, error) {
	start := time.Now()
	for t := 0; t < trials; t++ {
		if _, err := sim.ConcurrentOutputs(p, g, r, sim.StreamTapes(stream, uint64(t))); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// checkBaseline compares the fresh report against a checked-in
// BENCH_N.json: every cell present in both must run at no worse than
// maxSlowdown × the baseline time. Absolute throughputs move with the
// host, so this is a smoke gate against order-of-magnitude regressions
// (an accidental fallback to the reference path), not a microbenchmark.
func checkBaseline(report benchReport, path string, maxSlowdown float64) error {
	if maxSlowdown <= 0 {
		return fmt.Errorf("-max-slowdown must be positive, got %g", maxSlowdown)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseTPS := make(map[string]float64, len(base.Results))
	for _, pt := range base.Results {
		baseTPS[pt.Protocol+"|"+pt.Graph+"|"+pt.Engine] = pt.TrialsPerSec
	}
	var regressions []string
	for _, pt := range report.Results {
		want, ok := baseTPS[pt.Protocol+"|"+pt.Graph+"|"+pt.Engine]
		if !ok || want <= 0 || pt.TrialsPerSec <= 0 {
			continue
		}
		if slow := want / pt.TrialsPerSec; slow > maxSlowdown {
			regressions = append(regressions, fmt.Sprintf(
				"%s %s %s: %.0f trials/sec vs baseline %.0f (%.1fx slower, gate %gx)",
				pt.Protocol, pt.Graph, pt.Engine, pt.TrialsPerSec, want, slow, maxSlowdown))
		}
	}
	if len(regressions) > 0 {
		msg := "throughput regressions vs " + path + ":"
		for _, r := range regressions {
			msg += "\n  " + r
		}
		return errors.New(msg)
	}
	return nil
}
