package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime/debug"
	"strconv"
	"strings"

	"coordattack/internal/causality"
	"coordattack/internal/cliutil"
	"coordattack/internal/experiments"
	"coordattack/internal/fault"
	"coordattack/internal/graph"
	"coordattack/internal/mc"
	"coordattack/internal/rng"
	"coordattack/internal/run"
	"coordattack/internal/stats"
)

// RunFunc is one engine execution: it turns one canonical JobSpec into
// a JSON result body. workers is the trial-parallelism budget the
// scheduler grants the run (so a loaded pool does not oversubscribe the
// CPU — budgets never change the numbers, only the speed), and progress
// observes trial counts, which feed the watchdog's liveness clock. A
// cancelled or deadline-expired mc run returns its partial body
// *together with* the context error; the scheduler keeps the body and
// marks the job cancelled. Bodies are built deterministically from the
// spec, which is what makes cache hits bit-identical to recomputation.
// Config.WrapEngine wraps one; wrappers must forward workers and
// progress.
type RunFunc func(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error)

// engineRegistry is what the scheduler dispatches through, keyed by
// JobSpec.Engine. The experiment engine carries a service-lifetime
// level-table memo: repeated submissions (and the prefix ladders inside
// one experiment) share causality work across jobs. The memo never
// changes results — only how often the closure is recomputed — so
// cache-hit bodies stay bit-identical to recomputation.
func engineRegistry() map[string]RunFunc {
	memo := causality.NewMemo()
	return map[string]RunFunc{
		EngineMC: runMC,
		EngineExperiment: func(ctx context.Context, spec JobSpec, _ int, _ func(mc.Snapshot)) (json.RawMessage, error) {
			e, err := experiments.ByID(spec.Experiment)
			if err != nil {
				return nil, err
			}
			res, err := e.Run(experiments.Options{
				Trials: spec.Trials, Seed: spec.Seed, Quick: spec.Quick, Ctx: ctx, Memo: memo,
			})
			if err != nil {
				return nil, err
			}
			return res.JSON()
		},
	}
}

// PanicError is the structured failure a recovered engine panic settles
// its job with: the panicking engine, the panic value, and a truncated
// stack. One panicking job must never take the worker pool down — the
// paper's processes die individually, not as a system.
type PanicError struct {
	Engine string
	Value  any
	Stack  string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("service: engine %q panicked: %v\n%s", e.Engine, e.Value, e.Stack)
}

// panicStackLimit bounds the stack carried in a job's error message; the
// top frames are the useful ones.
const panicStackLimit = 2048

// runEngine runs fn with panic isolation: a panic anywhere under the
// engine (a bad protocol implementation, an arithmetic edge case, an
// injected chaos fault) becomes a *PanicError failing this one job
// instead of killing the worker goroutine and, with it, the daemon's
// capacity. The recovery sits outside any Config.WrapEngine wrapper,
// so wrapper-injected panics are isolated exactly like engine ones.
func runEngine(name string, fn RunFunc, ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (body json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if len(stack) > panicStackLimit {
				stack = stack[:panicStackLimit]
			}
			body = nil
			err = &PanicError{Engine: name, Value: r, Stack: string(stack)}
		}
	}()
	return fn(ctx, spec, workers, progress)
}

// buildMCInputs parses a canonical mc spec into everything mc.Estimate
// needs except the context and observers. It is also
// canonicalization's validator: every sub-spec parse error surfaces
// here, at submit time.
func buildMCInputs(c JobSpec) (mc.Config, error) {
	p, err := cliutil.ParseProtocol(c.Protocol)
	if err != nil {
		return mc.Config{}, err
	}
	g, err := cliutil.ParseGraph(c.Graph, c.Seed)
	if err != nil {
		return mc.Config{}, err
	}
	// Exact size limits, after the cheap boundGraphSpec pre-filter:
	// products (grid:RxC) and exponentials (hypercube:D) can pass the
	// per-argument bound while the built graph does not.
	if v := g.NumVertices(); v > MaxProcs {
		return mc.Config{}, fmt.Errorf("service: graph %q has %d processes, served limit %d", c.Graph, v, MaxProcs)
	} else if cost := c.Rounds * v * v; cost > maxRunCost {
		return mc.Config{}, fmt.Errorf("service: rounds×V² = %d over the served limit %d", cost, maxRunCost)
	}
	inputs, err := cliutil.ParseInputs(c.Inputs, g)
	if err != nil {
		return mc.Config{}, err
	}
	cfg := mc.Config{
		Protocol:    p,
		Graph:       g,
		Trials:      c.Trials,
		Seed:        c.Seed,
		MaxFailures: c.MaxFailures,
	}
	if c.Precision != nil {
		// CheckEvery stays at the mc default (1000): it is part of what
		// the stopping point means, so it is deliberately not a knob.
		cfg.TargetCIWidth = c.Precision.CIWidth
	}
	if c.Sampler != "" {
		cfg.Sampler, err = parseSampler(c.Sampler, g, c.Rounds, inputs)
	} else {
		cfg.Run, err = cliutil.ParseRun(c.Run, g, c.Rounds, inputs, c.Seed)
	}
	if err != nil {
		return mc.Config{}, err
	}
	if c.Fault != "" {
		plan, err := cliutil.ParseFault(c.Fault, g, c.Rounds, c.Seed)
		if err != nil {
			return mc.Config{}, err
		}
		cfg.Protocol = fault.Inject(p, plan)
	}
	return cfg, nil
}

// parseSampler parses a per-trial run sampler spec:
//
//	loss:P — a good run with each delivery independently lost with
//	         probability P, resampled per trial
//	subset — a uniformly random subset of the good run's deliveries
//
// The returned sampler derives each trial's run from the tape the mc
// harness hands it, so the determinism discipline (trial t depends only
// on (seed, t)) holds.
func parseSampler(spec string, g *graph.G, rounds int, inputs []graph.ProcID) (mc.RunSampler, error) {
	name, args, _ := strings.Cut(spec, ":")
	switch name {
	case "loss":
		p, err := strconv.ParseFloat(args, 64)
		if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
			return nil, fmt.Errorf("service: sampler %q: want loss:P with P in [0,1]", spec)
		}
		return func(trial uint64, tape *rng.Tape) (*run.Run, error) {
			return run.RandomLoss(g, rounds, p, tape, inputs...)
		}, nil
	case "subset":
		if args != "" {
			return nil, fmt.Errorf("service: sampler %q: subset takes no argument", spec)
		}
		return func(trial uint64, tape *rng.Tape) (*run.Run, error) {
			return run.RandomSubset(g, rounds, tape)
		}, nil
	default:
		return nil, fmt.Errorf("service: unknown sampler spec %q (want loss:P or subset)", spec)
	}
}

// mcBody is the JSON result body of an mc job. Like mc.Result, its
// field names are API.
type mcBody struct {
	Result *mc.Result `json:"result"`
	// Wilson 95% intervals over the completed trials, precomputed so
	// clients need no statistics code.
	TAWilson95 stats.Interval `json:"ta_wilson95"`
	PAWilson95 stats.Interval `json:"pa_wilson95"`
	NAWilson95 stats.Interval `json:"na_wilson95"`
	// Partial marks a result from a cancelled or deadline-expired job:
	// proportions cover only the completed trials. Partial bodies are
	// never cached.
	Partial bool   `json:"partial,omitempty"`
	Error   string `json:"error,omitempty"`
}

// runMC is the mc engine: mc.Estimate over the spec's inputs, with the
// Wilson intervals and any partial-result error folded into the body.
func runMC(ctx context.Context, spec JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
	cfg, err := buildMCInputs(spec)
	if err != nil {
		return nil, err
	}
	cfg.Ctx = ctx
	cfg.Workers = workers
	cfg.Progress = progress
	res, estErr := mc.Estimate(cfg)
	if res == nil {
		return nil, estErr
	}
	const z95 = 1.959963984540054
	body := mcBody{
		Result:     res,
		TAWilson95: res.TA.WilsonInterval(z95),
		PAWilson95: res.PA.WilsonInterval(z95),
		NAWilson95: res.NA.WilsonInterval(z95),
	}
	if estErr != nil {
		body.Partial = true
		body.Error = estErr.Error()
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return data, estErr
}
