// Package service is the serving layer over the reproduction's engines.
// It turns JSON job specs into canonical content-addressed cache keys,
// schedules jobs on bounded worker pools, one per scheduling class,
// with per-job deadlines and fair queues with backpressure, memoizes
// completed results so repeated queries are answered without
// re-simulating, and exposes the whole thing over HTTP (see
// cmd/coordd).
//
// The flow is: spec → Canonicalize → Key → cache lookup → scheduler →
// engine (mc.Estimate or an internal/experiments entry) → cache fill.
// Canonicalization is load-bearing: it fills every default explicitly
// and normalizes spelling so that two requests meaning the same
// computation always collide on the same key. spec_golden_test.go pins
// the keys; changing canonicalization without bumping keyVersion is a
// silent cache-poisoning bug.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"coordattack/internal/experiments"
)

// keyVersion prefixes every cache key. Bump it whenever canonicalization
// or result serialization changes meaning, so stale keys can never alias
// new results. v2: precision (adaptive early stopping) joined the
// canonical form, and graph-size/run-cost limits changed which specs are
// accepted.
const keyVersion = "coordd/v2"

// Spec limits protect the daemon from absurd requests.
const (
	MaxTrials = 10_000_000
	MaxRounds = 10_000
	// MaxProcs bounds the number of processes a served job's graph may
	// have: a daemon answering the open internet must not build
	// million-vertex graphs on request.
	MaxProcs = 128
	// maxRunCost bounds Rounds·V², a proxy for the memory a fixed run
	// over the graph costs to materialize.
	maxRunCost = 1 << 22
)

// Engine names accepted in JobSpec.Engine.
const (
	EngineMC         = "mc"
	EngineExperiment = "experiment"
)

// JobSpec is the wire form of one experiment request. The zero value of
// every field means "use the default"; Canonicalize fills the defaults
// in explicitly so that specs that mean the same computation serialize
// to the same canonical form.
type JobSpec struct {
	// Engine selects the computation: "mc" (Monte-Carlo estimation via
	// internal/mc, the default) or "experiment" (one of the registered
	// T/F reproduction experiments).
	Engine string `json:"engine,omitempty"`

	// Monte-Carlo engine fields, in the CLI spec languages of
	// internal/cliutil (see the coordsim docs).
	Protocol string `json:"protocol,omitempty"` // required for engine=mc, e.g. "s:0.1"
	Graph    string `json:"graph,omitempty"`    // default "pair"
	Rounds   int    `json:"rounds,omitempty"`   // default 10
	Inputs   string `json:"inputs,omitempty"`   // default "all"
	// Run fixes the run to condition on (default "good"); Sampler draws
	// a fresh run per trial ("loss:P" or "subset"). Exactly one of the
	// two is active.
	Run     string `json:"run,omitempty"`
	Sampler string `json:"sampler,omitempty"`
	Trials  int    `json:"trials,omitempty"` // default 20000
	// Seed roots all randomness; 0 means the default seed 1 (mc) or
	// 1992 (experiment).
	Seed uint64 `json:"seed,omitempty"`
	// Fault injects process faults, in coordsim's -fault language:
	// "kind:proc[@round],..." or "rand:P".
	Fault string `json:"fault,omitempty"`
	// MaxFailures is the failed-trial budget; 0 defaults to 0 (fail
	// fast) for fault-free jobs and to Trials when Fault is set, since
	// fatally-faulty trials are then the expected outcome being measured.
	MaxFailures int `json:"max_failures,omitempty"`

	// Precision, when set, turns on adaptive early stopping for an mc
	// job: trial dispatch halts once every outcome probability's Wilson
	// 95% interval is narrower than Precision.CIWidth, and the result
	// reports the trials actually run. It changes the computed result,
	// so it is part of the cache key.
	Precision *PrecisionSpec `json:"precision,omitempty"`

	// Experiment engine fields.
	Experiment string `json:"experiment,omitempty"` // required for engine=experiment, e.g. "T3"
	Quick      bool   `json:"quick,omitempty"`

	// TimeoutSec caps this job's runtime below the server default. It
	// does not affect the computed result, so it is excluded from the
	// cache key.
	TimeoutSec int `json:"timeout_sec,omitempty"`

	// Priority orders this job within its scheduler flow: higher runs
	// first, ties break by deadline then admission order. In [-100,
	// 100]; 0 is the default class. Like TimeoutSec it does not affect
	// the computed result, so it is excluded from the cache key — jobs
	// differing only in priority coalesce.
	Priority int `json:"priority,omitempty"`
}

// PrecisionSpec is the wire form of an adaptive-early-stopping request.
// The stopping rule is deterministic — evaluated every 1000 dispatched
// trials on the order-independent cumulative tally — so an early-stopped
// result is as cacheable as a fixed-count one.
type PrecisionSpec struct {
	// CIWidth is the target full width of the widest Wilson 95% interval
	// among the TA/PA/NA estimates, in (0, 1).
	CIWidth float64 `json:"ci_width"`
}

// normSpec trims and lowercases a whole spec string.
func normSpec(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// normRunSpec lowercases only the name part of a run spec: the payload
// of "custom:N=...;I=...;M=..." is case-sensitive. A spec already in
// canonical form comes back as is, not rebuilt, so the cells of a sweep
// share their base's run string instead of each holding a copy.
func normRunSpec(s string) string {
	s = strings.TrimSpace(s)
	name, args, ok := strings.Cut(s, ":")
	lower := strings.ToLower(name)
	switch {
	case !ok:
		return lower
	case lower != name:
		return lower + ":" + args
	}
	return s
}

// Canonicalize validates the spec and returns the canonical copy: every
// default filled explicitly, spelling normalized, engines' unused
// fields verified empty. The canonical form is what Key hashes and what
// the scheduler executes, so Canonicalize is the single place where a
// request's meaning is decided.
func (s JobSpec) Canonicalize() (JobSpec, error) {
	c := JobSpec{
		Engine:      normSpec(s.Engine),
		Protocol:    normSpec(s.Protocol),
		Graph:       normSpec(s.Graph),
		Rounds:      s.Rounds,
		Inputs:      normSpec(s.Inputs),
		Run:         normRunSpec(s.Run),
		Sampler:     normSpec(s.Sampler),
		Trials:      s.Trials,
		Seed:        s.Seed,
		Fault:       normSpec(s.Fault),
		MaxFailures: s.MaxFailures,
		Experiment:  strings.ToUpper(strings.TrimSpace(s.Experiment)),
		Quick:       s.Quick,
		TimeoutSec:  s.TimeoutSec,
		Priority:    s.Priority,
	}
	if p := s.Precision; p != nil {
		if p.CIWidth == 0 {
			// A zero precision block means "no early stopping": normalize
			// it away so it cannot split the cache key.
			c.Precision = nil
		} else if !(p.CIWidth > 0 && p.CIWidth < 1) { // negation also catches NaN
			return JobSpec{}, fmt.Errorf("service: precision ci_width must be in (0, 1), got %v", p.CIWidth)
		} else {
			c.Precision = &PrecisionSpec{CIWidth: p.CIWidth}
		}
	}
	if c.Engine == "" {
		c.Engine = EngineMC
	}
	if c.TimeoutSec < 0 {
		return JobSpec{}, fmt.Errorf("service: timeout_sec must be nonnegative, got %d", c.TimeoutSec)
	}
	if c.Priority < -100 || c.Priority > 100 {
		return JobSpec{}, fmt.Errorf("service: priority must be in -100..100, got %d", c.Priority)
	}
	switch c.Engine {
	case EngineMC:
		return c.canonicalizeMC()
	case EngineExperiment:
		return c.canonicalizeExperiment()
	default:
		return JobSpec{}, fmt.Errorf("service: unknown engine %q (want %q or %q)", c.Engine, EngineMC, EngineExperiment)
	}
}

func (c JobSpec) canonicalizeMC() (JobSpec, error) {
	if c.Experiment != "" || c.Quick {
		return JobSpec{}, fmt.Errorf("service: experiment fields set on an mc job")
	}
	if c.Protocol == "" {
		return JobSpec{}, fmt.Errorf("service: mc job needs a protocol spec")
	}
	if c.Graph == "" {
		c.Graph = "pair"
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.Rounds < 1 || c.Rounds > MaxRounds {
		return JobSpec{}, fmt.Errorf("service: rounds must be in 1..%d, got %d", MaxRounds, c.Rounds)
	}
	if c.Inputs == "" {
		c.Inputs = "all"
	}
	if c.Run != "" && c.Sampler != "" {
		return JobSpec{}, fmt.Errorf("service: run and sampler are mutually exclusive")
	}
	if c.Run == "" && c.Sampler == "" {
		c.Run = "good"
	}
	if c.Trials == 0 {
		c.Trials = 20000
	}
	if c.Trials < 1 || c.Trials > MaxTrials {
		return JobSpec{}, fmt.Errorf("service: trials must be in 1..%d, got %d", MaxTrials, c.Trials)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Fault == "none" {
		c.Fault = ""
	}
	if c.MaxFailures < 0 {
		return JobSpec{}, fmt.Errorf("service: max_failures must be nonnegative, got %d", c.MaxFailures)
	}
	if c.MaxFailures == 0 && c.Fault != "" {
		c.MaxFailures = c.Trials
	}
	if c.MaxFailures > c.Trials {
		c.MaxFailures = c.Trials
	}
	// Reject absurd graph arguments before ParseGraph builds them: the
	// full vertex-count and run-cost limits are enforced inside
	// buildMCInputs, but a hostile "complete:1000000" must fail fast
	// instead of exhausting memory first.
	if err := boundGraphSpec(c.Graph); err != nil {
		return JobSpec{}, err
	}
	// Parse every sub-spec now so an invalid job is rejected at submit
	// time with a 400, not discovered by a worker.
	if _, err := buildMCInputs(c); err != nil {
		return JobSpec{}, err
	}
	return c, nil
}

// boundGraphSpec is the cheap pre-filter on a graph spec's integer
// arguments. Specs whose vertex count is exponential in the argument
// (hypercube, tree) get a correspondingly tighter limit; everything else
// is held to MaxProcs, with the exact post-parse check in buildMCInputs.
func boundGraphSpec(spec string) error {
	name, args, _ := strings.Cut(spec, ":")
	limit := MaxProcs
	switch name {
	case "hypercube", "cube", "tree", "binarytree":
		limit = 10
	}
	for _, tok := range strings.FieldsFunc(args, func(r rune) bool { return r == ':' || r == 'x' }) {
		if n, err := strconv.Atoi(tok); err == nil && n > limit {
			return fmt.Errorf("service: graph %q argument %d over the served limit %d", spec, n, limit)
		}
	}
	return nil
}

func (c JobSpec) canonicalizeExperiment() (JobSpec, error) {
	if c.Protocol != "" || c.Graph != "" || c.Rounds != 0 || c.Inputs != "" ||
		c.Run != "" || c.Sampler != "" || c.Fault != "" || c.MaxFailures != 0 ||
		c.Precision != nil {
		return JobSpec{}, fmt.Errorf("service: mc fields set on an experiment job")
	}
	if c.Experiment == "" {
		return JobSpec{}, fmt.Errorf("service: experiment job needs an experiment id")
	}
	e, err := experiments.ByID(c.Experiment)
	if err != nil {
		return JobSpec{}, err
	}
	c.Experiment = e.ID // registry spelling, so "t3" and "T3" share a key
	if c.Trials < 0 || c.Trials > MaxTrials {
		return JobSpec{}, fmt.Errorf("service: trials must be in 0..%d, got %d", MaxTrials, c.Trials)
	}
	// Fill the engine defaults explicitly (experiments.Options
	// withDefaults) so spec{} and spec{Trials: 20000, Seed: 1992} share
	// a key.
	if c.Trials == 0 {
		c.Trials = 20000
		if c.Quick {
			c.Trials = 4000
		}
	}
	if c.Seed == 0 {
		c.Seed = 1992
	}
	return c, nil
}

// Key returns the content-addressed cache key of a canonical spec: a
// sha256 over a versioned, fixed-order serialization of every
// result-affecting field. Non-semantic fields (TimeoutSec) are
// deliberately absent. Call Key only on the output of Canonicalize.
func (c JobSpec) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", keyVersion)
	fmt.Fprintf(&b, "engine=%s\n", c.Engine)
	fmt.Fprintf(&b, "protocol=%s\n", c.Protocol)
	fmt.Fprintf(&b, "graph=%s\n", c.Graph)
	fmt.Fprintf(&b, "rounds=%d\n", c.Rounds)
	fmt.Fprintf(&b, "inputs=%s\n", c.Inputs)
	fmt.Fprintf(&b, "run=%s\n", c.Run)
	fmt.Fprintf(&b, "sampler=%s\n", c.Sampler)
	fmt.Fprintf(&b, "trials=%d\n", c.Trials)
	fmt.Fprintf(&b, "seed=%d\n", c.Seed)
	fmt.Fprintf(&b, "fault=%s\n", c.Fault)
	fmt.Fprintf(&b, "max_failures=%d\n", c.MaxFailures)
	ciWidth := 0.0
	if c.Precision != nil {
		ciWidth = c.Precision.CIWidth
	}
	fmt.Fprintf(&b, "ci_width=%g\n", ciWidth)
	fmt.Fprintf(&b, "experiment=%s\n", c.Experiment)
	fmt.Fprintf(&b, "quick=%t\n", c.Quick)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
