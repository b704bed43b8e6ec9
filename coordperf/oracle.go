package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"coordattack/internal/cliutil"
	"coordattack/internal/core"
	"coordattack/internal/service"
)

// hoeffdingDelta is the per-job miss probability of the exact-formula
// check: with a few thousand checked jobs per run, a chance failure
// anywhere in a run has probability below 1%.
const hoeffdingDelta = 1e-6

// oracle checks served results: every repeat of a key returns the same
// bytes (across tiers and nodes), and fault-free fixed-run Protocol S
// estimates contain the exact Pr[TA|R] and Pr[PA|R] of core.(*S).Analyze
// within a Hoeffding radius.
type oracle struct {
	mu      sync.Mutex
	bodies  map[string][]byte
	exact   map[string]*core.RunAnalysis
	checked int // results compared with the exact formulas
}

func newOracle() *oracle {
	return &oracle{bodies: make(map[string][]byte), exact: make(map[string]*core.RunAnalysis)}
}

// check verifies one settled body served for the canonical spec with
// key.
func (o *oracle) check(spec service.JobSpec, key string, body []byte) error {
	o.mu.Lock()
	prev, seen := o.bodies[key]
	if !seen {
		o.bodies[key] = body
	}
	o.mu.Unlock()
	if seen {
		if !bytes.Equal(prev, body) {
			return fmt.Errorf("key %s: served body differs from an earlier answer for the same key", key)
		}
		return nil
	}
	if err := o.exactCheck(spec, body); err != nil {
		return fmt.Errorf("key %s: %w", key, err)
	}
	return nil
}

// mcReply is the part of an mc result body the exact check reads.
type mcReply struct {
	Result *struct {
		Completed int `json:"completed"`
		Failed    int `json:"failed"`
		TA        struct {
			Hits int `json:"hits"`
		} `json:"ta"`
		PA struct {
			Hits int `json:"hits"`
		} `json:"pa"`
	} `json:"result"`
	Partial bool `json:"partial"`
}

// exactCheck compares a fault-free fixed-run Protocol S estimate with
// the paper's closed forms (Theorems 6.7 and 6.8); other specs pass.
func (o *oracle) exactCheck(spec service.JobSpec, body []byte) error {
	eps, ok := protocolS(spec)
	if spec.Engine != service.EngineMC || !ok || spec.Fault != "" || spec.Sampler != "" {
		return nil
	}
	var rep mcReply
	if err := json.Unmarshal(body, &rep); err != nil || rep.Result == nil {
		return fmt.Errorf("result is not an mc body: %v", err)
	}
	n := rep.Result.Completed
	if rep.Partial || rep.Result.Failed != 0 || n != spec.Trials {
		return fmt.Errorf("partial result: %d of %d trials, %d failed", n, spec.Trials, rep.Result.Failed)
	}
	a, err := o.analysis(spec, eps)
	if err != nil {
		return err
	}
	radius := math.Sqrt(math.Log(2/hoeffdingDelta) / (2 * float64(n)))
	ta := float64(rep.Result.TA.Hits) / float64(n)
	pa := float64(rep.Result.PA.Hits) / float64(n)
	o.mu.Lock()
	o.checked++
	o.mu.Unlock()
	if math.Abs(ta-a.PTotal) > radius || math.Abs(pa-a.PPartial) > radius {
		return fmt.Errorf("estimate TA %.4f PA %.4f outside ±%.4f of exact TA %.4f PA %.4f",
			ta, pa, radius, a.PTotal, a.PPartial)
	}
	return nil
}

// protocolS parses a canonical "s:EPS" protocol spec.
func protocolS(spec service.JobSpec) (float64, bool) {
	rest, ok := strings.CutPrefix(spec.Protocol, "s:")
	if !ok {
		return 0, false
	}
	eps, err := strconv.ParseFloat(rest, 64)
	return eps, err == nil
}

// analysis returns the exact distribution of Protocol S on the spec's
// run, memoized: the generated specs use deterministic graphs and runs,
// so the analysis depends on the spec only through these fields.
func (o *oracle) analysis(spec service.JobSpec, eps float64) (*core.RunAnalysis, error) {
	id := fmt.Sprintf("%s|%d|%s|%s|%g", spec.Graph, spec.Rounds, spec.Inputs, spec.Run, eps)
	o.mu.Lock()
	a, ok := o.exact[id]
	o.mu.Unlock()
	if ok {
		return a, nil
	}
	g, err := cliutil.ParseGraph(spec.Graph, spec.Seed)
	if err != nil {
		return nil, err
	}
	inputs, err := cliutil.ParseInputs(spec.Inputs, g)
	if err != nil {
		return nil, err
	}
	r, err := cliutil.ParseRun(spec.Run, g, spec.Rounds, inputs, spec.Seed)
	if err != nil {
		return nil, err
	}
	s, err := core.NewS(eps)
	if err != nil {
		return nil, err
	}
	if a, err = s.Analyze(g, r); err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.exact[id] = a
	o.mu.Unlock()
	return a, nil
}
