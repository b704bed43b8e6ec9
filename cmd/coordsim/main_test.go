package main

import (
	"strings"
	"testing"
)

func TestSimGoodRunS(t *testing.T) {
	var b strings.Builder
	code := run([]string{"-protocol", "s:0.5", "-graph", "pair", "-rounds", "4", "-run", "good"}, &b)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, b.String())
	}
	out := b.String()
	for _, want := range []string{"S(ε=0.5)", "outcome:", "exact:", "ML(R)="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSimTraceProtocolA(t *testing.T) {
	var b strings.Builder
	code := run([]string{"-protocol", "a", "-graph", "pair", "-rounds", "6", "-run", "cut:3", "-trace"}, &b)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, b.String())
	}
	out := b.String()
	for _, want := range []string{"-- process 1", "round 1:", "send→2", "exact:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSimRepeatedAExact(t *testing.T) {
	var b strings.Builder
	code := run([]string{"-protocol", "axk:2:all", "-graph", "pair", "-rounds", "8", "-run", "good"}, &b)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "Pr[TA]=1.0000") {
		t.Errorf("expected certain TA on good run:\n%s", b.String())
	}
}

func TestSimSpacetimeAndCustomRun(t *testing.T) {
	var b strings.Builder
	code := run([]string{
		"-protocol", "a", "-graph", "pair", "-rounds", "4",
		"-run", "custom:N=4;I=1,2;M=2t1r1,1t2r2,2t1r3", "-spacetime",
	}, &b)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, b.String())
	}
	out := b.String()
	for _, want := range []string{"P1", "ML=[", "v₀!", "Pr[TA]=0.6667"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSimMonteCarloFlag(t *testing.T) {
	var b strings.Builder
	code := run([]string{"-protocol", "s:0.5", "-graph", "pair", "-rounds", "4", "-run", "good", "-mc", "2000"}, &b)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "mc(2000):") {
		t.Errorf("mc output missing:\n%s", b.String())
	}
}

func TestSimFaultFlag(t *testing.T) {
	var b strings.Builder
	code := run([]string{
		"-protocol", "s:0.1", "-graph", "pair", "-rounds", "10",
		"-run", "good", "-fault", "crash:2@4", "-mc", "5000",
	}, &b)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, b.String())
	}
	out := b.String()
	for _, want := range []string{"faults:   crash:2@4", "mc(5000):", "faulty:", "Theorem 5.4 ceiling"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSimFatalFaultDegradesGracefully(t *testing.T) {
	// A panicking machine kills the showcase execution but must not kill
	// the command: the estimate still runs with failures budgeted.
	var b strings.Builder
	code := run([]string{
		"-protocol", "s:0.2", "-graph", "pair", "-rounds", "4",
		"-run", "good", "-fault", "panicstep:2@2", "-mc", "200",
	}, &b)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, b.String())
	}
	out := b.String()
	for _, want := range []string{"execution failed under injected faults", "mc(200):", "trials failed under injected faults"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSimFaultRandAndNonOmission(t *testing.T) {
	// Sampled plan: accepted and echoed (plan contents depend on seed).
	var b strings.Builder
	if code := run([]string{
		"-protocol", "s:0.5", "-graph", "pair", "-rounds", "4",
		"-run", "good", "-fault", "rand:1",
	}, &b); code != 0 {
		t.Fatalf("rand plan: exit code %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "faults:   ") {
		t.Errorf("sampled plan not echoed:\n%s", b.String())
	}
	// A stutter fault has no omission-equivalent run: the exact analysis
	// degrades to a notice instead of failing.
	b.Reset()
	if code := run([]string{
		"-protocol", "s:0.5", "-graph", "pair", "-rounds", "4",
		"-run", "good", "-fault", "stutter:1@2",
	}, &b); code != 0 {
		t.Fatalf("stutter plan: exit code %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "not omission-equivalent") {
		t.Errorf("missing non-omission notice:\n%s", b.String())
	}
}

func TestSimBadSpecs(t *testing.T) {
	cases := [][]string{
		{"-protocol", "zzz"},
		{"-graph", "zzz"},
		{"-run", "zzz"},
		{"-inputs", "99"},
		{"-fault", "zzz"},
		{"-fault", "crash:99@1"},
		{"-bogusflag"},
	}
	for _, args := range cases {
		var b strings.Builder
		if code := run(args, &b); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}

func TestSimProtocolRunMismatch(t *testing.T) {
	// Protocol A on a 3-general graph: machine construction fails.
	var b strings.Builder
	if code := run([]string{"-protocol", "a", "-graph", "ring:3", "-rounds", "4"}, &b); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
}
