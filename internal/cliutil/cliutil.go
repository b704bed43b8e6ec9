// Package cliutil parses the small spec languages the command-line tools
// share: graph specs ("pair", "ring:6", "grid:3x4"), run specs ("good",
// "cut:4", "tree", "loss:0.1", "silent"), input specs ("all", "1", "1,3"),
// fault specs ("rand:0.3", "crash:2@4,flip:1"), and protocol specs
// ("s:0.1", "s+1:0.1", "a", "axk:4:all", "detfullinfo",
// "detthreshold:1/2").
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"coordattack/internal/baseline"
	"coordattack/internal/core"
	"coordattack/internal/fault"
	"coordattack/internal/graph"
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	"coordattack/internal/run"
)

// ParseGraph builds a graph from a spec:
//
//	pair | complete:M | ring:M | line:M | star:M | grid:RxC |
//	hypercube:D | random:M:P (connected, edge prob P, seeded)
func ParseGraph(spec string, seed uint64) (*graph.G, error) {
	name, args, _ := strings.Cut(strings.ToLower(strings.TrimSpace(spec)), ":")
	switch name {
	case "pair", "k2":
		return graph.Pair(), nil
	case "complete":
		m, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("cliutil: complete:M needs integer M: %w", err)
		}
		return graph.Complete(m)
	case "ring":
		m, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("cliutil: ring:M needs integer M: %w", err)
		}
		return graph.Ring(m)
	case "line":
		m, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("cliutil: line:M needs integer M: %w", err)
		}
		return graph.Line(m)
	case "star":
		m, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("cliutil: star:M needs integer M: %w", err)
		}
		return graph.Star(m)
	case "grid":
		r, c, found := strings.Cut(args, "x")
		if !found {
			return nil, fmt.Errorf("cliutil: grid spec needs RxC, got %q", args)
		}
		rows, err := strconv.Atoi(r)
		if err != nil {
			return nil, fmt.Errorf("cliutil: grid rows: %w", err)
		}
		cols, err := strconv.Atoi(c)
		if err != nil {
			return nil, fmt.Errorf("cliutil: grid cols: %w", err)
		}
		return graph.Grid(rows, cols)
	case "hypercube", "cube":
		d, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("cliutil: hypercube:D needs integer D: %w", err)
		}
		return graph.Hypercube(d)
	case "tree", "binarytree":
		d, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("cliutil: tree:D needs integer depth D: %w", err)
		}
		return graph.BinaryTree(d)
	case "torus":
		r, c, found := strings.Cut(args, "x")
		if !found {
			return nil, fmt.Errorf("cliutil: torus spec needs RxC, got %q", args)
		}
		rows, err := strconv.Atoi(r)
		if err != nil {
			return nil, fmt.Errorf("cliutil: torus rows: %w", err)
		}
		cols, err := strconv.Atoi(c)
		if err != nil {
			return nil, fmt.Errorf("cliutil: torus cols: %w", err)
		}
		return graph.Torus(rows, cols)
	case "wheel":
		m, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("cliutil: wheel:M needs integer M: %w", err)
		}
		return graph.Wheel(m)
	case "random":
		mRaw, pRaw, found := strings.Cut(args, ":")
		if !found {
			return nil, fmt.Errorf("cliutil: random spec needs M:P, got %q", args)
		}
		m, err := strconv.Atoi(mRaw)
		if err != nil {
			return nil, fmt.Errorf("cliutil: random M: %w", err)
		}
		p, err := strconv.ParseFloat(pRaw, 64)
		if err != nil {
			return nil, fmt.Errorf("cliutil: random P: %w", err)
		}
		return graph.RandomConnected(m, p, rng.NewTape(seed))
	default:
		return nil, fmt.Errorf("cliutil: unknown graph spec %q", spec)
	}
}

// ParseInputs parses an input spec: "all", "none", or a comma-separated
// vertex list like "1,3".
func ParseInputs(spec string, g *graph.G) ([]graph.ProcID, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "all", "":
		return g.Vertices(), nil
	case "none":
		return nil, nil
	}
	var out []graph.ProcID
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("cliutil: input %q: %w", part, err)
		}
		if v < 1 || v > g.NumVertices() {
			return nil, fmt.Errorf("cliutil: input %d not a vertex of %v", v, g)
		}
		out = append(out, graph.ProcID(v))
	}
	return out, nil
}

// ParseRun builds a run over n rounds from a spec, with inputs applied:
//
//	good | silent | cut:R | prefix:K | drop:F-T@R | tree | loss:P |
//	custom:N=<n>;I=<list>;M=<f>t<t>r<r>,...
//
// The custom form is run.Format's serialization; it carries its own N
// and inputs, overriding the surrounding flags.
func ParseRun(spec string, g *graph.G, n int, inputs []graph.ProcID, seed uint64) (*run.Run, error) {
	name, args, _ := strings.Cut(strings.TrimSpace(spec), ":")
	name = strings.ToLower(name)
	switch name {
	case "custom":
		r, err := run.Parse(args)
		if err != nil {
			return nil, err
		}
		if err := r.Validate(g); err != nil {
			return nil, err
		}
		return r, nil
	case "good", "":
		return run.Good(g, n, inputs...)
	case "silent":
		return run.Silent(n, inputs...)
	case "cut":
		round, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("cliutil: cut:R needs integer R: %w", err)
		}
		good, err := run.Good(g, n, inputs...)
		if err != nil {
			return nil, err
		}
		return run.CutAt(good, round), nil
	case "prefix":
		k, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("cliutil: prefix:K needs integer K: %w", err)
		}
		good, err := run.Good(g, n, inputs...)
		if err != nil {
			return nil, err
		}
		return run.Prefix(good, k), nil
	case "drop":
		// drop:F-T@R — good run minus the single delivery F→T in round R.
		pair, roundRaw, found := strings.Cut(args, "@")
		if !found {
			return nil, fmt.Errorf("cliutil: drop spec needs F-T@R, got %q", args)
		}
		fRaw, tRaw, found := strings.Cut(pair, "-")
		if !found {
			return nil, fmt.Errorf("cliutil: drop spec needs F-T@R, got %q", args)
		}
		f, err := strconv.Atoi(fRaw)
		if err != nil {
			return nil, fmt.Errorf("cliutil: drop sender: %w", err)
		}
		to, err := strconv.Atoi(tRaw)
		if err != nil {
			return nil, fmt.Errorf("cliutil: drop receiver: %w", err)
		}
		round, err := strconv.Atoi(roundRaw)
		if err != nil {
			return nil, fmt.Errorf("cliutil: drop round: %w", err)
		}
		good, err := run.Good(g, n, inputs...)
		if err != nil {
			return nil, err
		}
		return good.Drop(graph.ProcID(f), graph.ProcID(to), round), nil
	case "tree":
		return run.Tree(g, n, 1)
	case "loss":
		p, err := strconv.ParseFloat(args, 64)
		if err != nil {
			return nil, fmt.Errorf("cliutil: loss:P needs probability P: %w", err)
		}
		return run.RandomLoss(g, n, p, rng.NewTape(seed), inputs...)
	default:
		return nil, fmt.Errorf("cliutil: unknown run spec %q", spec)
	}
}

// ParseFault builds a fault plan over n rounds from a spec. "rand:P"
// samples a plan with per-process fault probability P from the seed;
// anything else is fault.Parse's explicit kind:proc[@round] list, where
// the empty spec and "none" are the empty plan.
func ParseFault(spec string, g *graph.G, n int, seed uint64) (*fault.Plan, error) {
	if rest, ok := strings.CutPrefix(spec, "rand:"); ok {
		// NaN slips through a bare range check (it fails both
		// comparisons), so reject it explicitly: "rand:NaN" must be an
		// error, not a silently fault-free plan.
		p, err := strconv.ParseFloat(rest, 64)
		if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
			return nil, fmt.Errorf("cliutil: bad fault spec %q: want rand:P with P in [0,1]", spec)
		}
		return fault.Sample(seed, 0, g, n, fault.SampleConfig{PFault: p})
	}
	return fault.Parse(spec, g.NumVertices(), n)
}

// ParseProtocol builds a protocol from a spec:
//
//	s:EPS | s+K:EPS | salt:EPS (footnote-1 variant S′) | a |
//	axk:K:MODE | detfullinfo | detthreshold:N/D
func ParseProtocol(spec string) (protocol.Protocol, error) {
	name, args, _ := strings.Cut(strings.ToLower(strings.TrimSpace(spec)), ":")
	switch {
	case name == "salt":
		eps, err := strconv.ParseFloat(args, 64)
		if err != nil {
			return nil, fmt.Errorf("cliutil: salt:EPS needs ε: %w", err)
		}
		return core.NewSAltValidity(eps)
	case name == "s":
		eps, err := strconv.ParseFloat(args, 64)
		if err != nil {
			return nil, fmt.Errorf("cliutil: s:EPS needs ε: %w", err)
		}
		return core.NewS(eps)
	case strings.HasPrefix(name, "s+"):
		slack, err := strconv.Atoi(name[2:])
		if err != nil {
			return nil, fmt.Errorf("cliutil: s+K slack: %w", err)
		}
		eps, err := strconv.ParseFloat(args, 64)
		if err != nil {
			return nil, fmt.Errorf("cliutil: s+K:EPS needs ε: %w", err)
		}
		return core.NewSWithSlack(eps, slack)
	case name == "a":
		return baseline.NewA(), nil
	case name == "axk":
		kRaw, modeRaw, found := strings.Cut(args, ":")
		if !found {
			return nil, fmt.Errorf("cliutil: axk spec needs K:MODE, got %q", args)
		}
		k, err := strconv.Atoi(kRaw)
		if err != nil {
			return nil, fmt.Errorf("cliutil: axk K: %w", err)
		}
		var mode baseline.CombineMode
		switch modeRaw {
		case "all":
			mode = baseline.CombineAll
		case "any":
			mode = baseline.CombineAny
		default:
			return nil, fmt.Errorf("cliutil: axk mode %q not all/any", modeRaw)
		}
		return baseline.NewRepeatedA(k, mode)
	case name == "detfullinfo":
		return baseline.NewDetFullInfo(), nil
	case name == "detthreshold":
		nRaw, dRaw, found := strings.Cut(args, "/")
		if !found {
			return nil, fmt.Errorf("cliutil: detthreshold needs N/D, got %q", args)
		}
		num, err := strconv.Atoi(nRaw)
		if err != nil {
			return nil, fmt.Errorf("cliutil: detthreshold numerator: %w", err)
		}
		den, err := strconv.Atoi(dRaw)
		if err != nil {
			return nil, fmt.Errorf("cliutil: detthreshold denominator: %w", err)
		}
		return baseline.NewDetThreshold(num, den)
	default:
		return nil, fmt.Errorf("cliutil: unknown protocol spec %q", spec)
	}
}
