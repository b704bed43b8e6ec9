// Command coordsim runs one protocol on one run and reports the outcome,
// optionally with a full execution trace and — for Protocols S and A —
// the exact outcome distribution beside the simulated one.
//
// Usage:
//
//	coordsim -protocol s:0.1 -graph pair -rounds 10 -run good
//	coordsim -protocol a -graph pair -rounds 8 -run cut:5 -trace
//	coordsim -protocol s:0.1 -graph ring:5 -rounds 10 -run tree -inputs 1
//	coordsim -protocol axk:2:all -graph pair -rounds 12 -run loss:0.1
//	coordsim -protocol s:0.1 -graph pair -rounds 10 -run good -fault crash:2@4 -mc 20000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"coordattack/internal/baseline"
	"coordattack/internal/cliutil"
	"coordattack/internal/core"
	"coordattack/internal/fault"
	"coordattack/internal/mc"
	"coordattack/internal/sim"
	"coordattack/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("coordsim", flag.ContinueOnError)
	var (
		protoSpec = fs.String("protocol", "s:0.1", "protocol spec (s:EPS | s+K:EPS | a | axk:K:MODE | detfullinfo | detthreshold:N/D)")
		graphSpec = fs.String("graph", "pair", "graph spec (pair | complete:M | ring:M | line:M | star:M | grid:RxC | hypercube:D | random:M:P)")
		rounds    = fs.Int("rounds", 10, "number of protocol rounds N")
		runSpec   = fs.String("run", "good", "run spec (good | silent | cut:R | prefix:K | drop:F-T@R | tree | loss:P)")
		inputSpec = fs.String("inputs", "all", "which generals receive the attack signal (all | none | 1,3,...)")
		seed      = fs.Uint64("seed", 1, "random seed for tapes (and loss/random specs)")
		faultSpec = fs.String("fault", "", "inject process faults: kind:proc[@round],... (crash|omit|stutter|garbage|nilsend|panicsend|panicstep|flip) or rand:P")
		traceFlag = fs.Bool("trace", false, "print the full execution trace")
		spacetime = fs.Bool("spacetime", false, "print the run as a spacetime diagram with ML annotations")
		mcTrials  = fs.Int("mc", 0, "also estimate the outcome distribution with this many Monte-Carlo trials")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, err := cliutil.ParseProtocol(*protoSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	g, err := cliutil.ParseGraph(*graphSpec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	inputs, err := cliutil.ParseInputs(*inputSpec, g)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	r, err := cliutil.ParseRun(*runSpec, g, *rounds, inputs, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	plan, err := cliutil.ParseFault(*faultSpec, g, *rounds, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// The executed protocol carries the injected faults; p stays the
	// fault-free protocol for the exact analyses.
	executed := fault.Inject(p, plan)

	fmt.Fprintf(out, "protocol: %s\ngraph:    %v\nrun:      %v\n", p.Name(), g, r)
	if !plan.Empty() {
		fmt.Fprintf(out, "faults:   %v\n", plan)
	}

	if *spacetime {
		diagram, err := trace.Spacetime(r, g.NumVertices(), g.NumVertices() >= 2)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprint(out, diagram)
	}
	exec, err := sim.Execute(executed, g, r, sim.SeedTapes(*seed))
	if err != nil {
		// A fault-injected machine dying is an expected outcome, not a
		// reason to abort: report it and carry on to the estimates.
		var me *sim.MachineError
		if !plan.Empty() && errors.As(err, &me) {
			fmt.Fprintf(out, "outcome:  execution failed under injected faults (%v)\n", me)
			exec = nil
		} else {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if exec != nil && *traceFlag {
		for i := 1; i < len(exec.Locals); i++ {
			le := exec.Locals[i]
			fmt.Fprintf(out, "-- process %d (input=%v)\n", le.ID, le.Input)
			for round, rec := range le.Rounds {
				fmt.Fprintf(out, "   round %d:", round+1)
				for _, s := range rec.Sent {
					fate := "lost"
					if s.Delivered {
						fate = "ok"
					}
					fmt.Fprintf(out, " send→%d[%s]", s.To, fate)
				}
				for _, rcv := range rec.Received {
					fmt.Fprintf(out, " recv←%d", rcv.From)
				}
				fmt.Fprintln(out)
			}
		}
	}
	if exec != nil {
		outs := exec.Outputs()
		fmt.Fprintf(out, "outputs:  %v\noutcome:  %v\n", outs[1:], exec.Outcome())
	}

	if *mcTrials > 0 {
		// Trials whose injected faults are fatal (panics, nil sends)
		// count against the budget instead of aborting the estimate.
		res, err := mc.Estimate(mc.Config{
			Protocol: executed, Graph: g, Run: r, Trials: *mcTrials, Seed: *seed,
			MaxFailures: *mcTrials,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(out, "mc(%d):   Pr[TA]=%.4f Pr[PA]=%.4f Pr[NA]=%.4f\n",
			*mcTrials, res.TA.Mean(), res.PA.Mean(), res.NA.Mean())
		if res.Failed > 0 {
			fmt.Fprintf(out, "          (%d/%d trials failed under injected faults)\n", res.Failed, res.Trials)
		}
	}
	switch proto := p.(type) {
	case *core.S:
		a, err := proto.Analyze(g, r)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(out, "exact:    Pr[TA]=%.4f Pr[PA]=%.4f Pr[NA]=%.4f  ML(R)=%d L(R)=%d bound=%.4f\n",
			a.PTotal, a.PPartial, a.PNone, a.ModMin, a.LevelMin, a.Bound)
		if !plan.Empty() {
			if eq, eqErr := fault.EquivalentRun(r, plan); eqErr == nil {
				af, err := proto.Analyze(g, eq)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				fmt.Fprintf(out, "faulty:   Pr[TA]=%.4f Pr[PA]=%.4f Pr[NA]=%.4f  ML=%d (liveness %.4f → %.4f vs Theorem 5.4 ceiling %.4f; safety Pr[PA] ≤ ε=%g intact)\n",
					af.PTotal, af.PPartial, af.PNone, af.ModMin, a.PTotal, af.PTotal, a.Bound, proto.Epsilon())
			} else {
				fmt.Fprintf(out, "faulty:   plan %v is not omission-equivalent; no exact analysis (use -mc)\n", plan)
			}
		}
	case baseline.A:
		d, err := baseline.AnalyzeA(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(out, "exact:    Pr[TA]=%.4f Pr[PA]=%.4f Pr[NA]=%.4f\n", d.PTotal, d.PPartial, d.PNone)
	case *baseline.RepeatedA:
		d, err := baseline.AnalyzeRepeatedA(proto, r)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(out, "exact:    Pr[TA]=%.4f Pr[PA]=%.4f Pr[NA]=%.4f\n", d.PTotal, d.PPartial, d.PNone)
	}
	return 0
}
