package cliutil

import (
	"strings"
	"testing"

	"coordattack/internal/baseline"
	"coordattack/internal/core"
	"coordattack/internal/graph"
)

func TestParseGraph(t *testing.T) {
	tests := []struct {
		spec string
		m, e int
	}{
		{"pair", 2, 1},
		{"k2", 2, 1},
		{"complete:4", 4, 6},
		{"ring:5", 5, 5},
		{"line:4", 4, 3},
		{"star:6", 6, 5},
		{"grid:2x3", 6, 7},
		{"hypercube:3", 8, 12},
		{"cube:2", 4, 4},
		{"tree:2", 7, 6},
		{"binarytree:1", 3, 2},
		{"torus:3x3", 9, 18},
		{"wheel:5", 5, 8},
		{" Ring:5 ", 5, 5}, // trimmed, case-insensitive
	}
	for _, tc := range tests {
		g, err := ParseGraph(tc.spec, 1)
		if err != nil {
			t.Errorf("ParseGraph(%q): %v", tc.spec, err)
			continue
		}
		if g.NumVertices() != tc.m || g.NumEdges() != tc.e {
			t.Errorf("ParseGraph(%q) = m=%d e=%d, want m=%d e=%d",
				tc.spec, g.NumVertices(), g.NumEdges(), tc.m, tc.e)
		}
	}
	if g, err := ParseGraph("random:6:0.5", 7); err != nil || !g.Connected() {
		t.Errorf("random graph: %v", err)
	}
	for _, bad := range []string{"", "blah", "ring", "ring:x", "grid:2", "grid:ax2", "grid:2xa",
		"complete:x", "line:x", "star:x", "cube:x", "random:6", "random:x:0.5", "random:6:x",
		"tree:x", "torus:3", "torus:ax3", "torus:3xa", "wheel:x"} {
		if _, err := ParseGraph(bad, 1); err == nil {
			t.Errorf("ParseGraph(%q) succeeded", bad)
		}
	}
}

func TestParseInputs(t *testing.T) {
	g := graph.Pair()
	all, err := ParseInputs("all", g)
	if err != nil || len(all) != 2 {
		t.Errorf("all: %v %v", all, err)
	}
	empty, err := ParseInputs("", g)
	if err != nil || len(empty) != 2 {
		t.Errorf("default: %v %v", empty, err)
	}
	none, err := ParseInputs("none", g)
	if err != nil || len(none) != 0 {
		t.Errorf("none: %v %v", none, err)
	}
	some, err := ParseInputs("1", g)
	if err != nil || len(some) != 1 || some[0] != 1 {
		t.Errorf("1: %v %v", some, err)
	}
	pairList, err := ParseInputs("1, 2", g)
	if err != nil || len(pairList) != 2 {
		t.Errorf("1,2: %v %v", pairList, err)
	}
	for _, bad := range []string{"0", "3", "x"} {
		if _, err := ParseInputs(bad, g); err == nil {
			t.Errorf("ParseInputs(%q) succeeded", bad)
		}
	}
}

func TestParseRun(t *testing.T) {
	g := graph.Pair()
	inputs := []graph.ProcID{1, 2}
	good, err := ParseRun("good", g, 4, inputs, 1)
	if err != nil || good.NumDeliveries() != 8 {
		t.Errorf("good: %v %v", good, err)
	}
	def, err := ParseRun("", g, 4, inputs, 1)
	if err != nil || !def.Equal(good) {
		t.Errorf("default spec is not good run: %v", err)
	}
	silent, err := ParseRun("silent", g, 4, inputs, 1)
	if err != nil || silent.NumDeliveries() != 0 {
		t.Errorf("silent: %v %v", silent, err)
	}
	cut, err := ParseRun("cut:3", g, 4, inputs, 1)
	if err != nil || cut.Delivered(1, 2, 3) || !cut.Delivered(1, 2, 2) {
		t.Errorf("cut: %v %v", cut, err)
	}
	prefix, err := ParseRun("prefix:2", g, 4, inputs, 1)
	if err != nil || prefix.NumDeliveries() != 4 {
		t.Errorf("prefix: %v %v", prefix, err)
	}
	drop, err := ParseRun("drop:1-2@2", g, 4, inputs, 1)
	if err != nil || drop.Delivered(1, 2, 2) || !drop.Delivered(2, 1, 2) {
		t.Errorf("drop: %v %v", drop, err)
	}
	tree, err := ParseRun("tree", g, 4, inputs, 1)
	if err != nil || !tree.HasInput(1) || tree.HasInput(2) {
		t.Errorf("tree: %v %v", tree, err)
	}
	loss0, err := ParseRun("loss:0", g, 4, inputs, 1)
	if err != nil || loss0.NumDeliveries() != 8 {
		t.Errorf("loss:0: %v %v", loss0, err)
	}
	custom, err := ParseRun("custom:N=4;I=1;M=1t2r2,2t1r3", g, 4, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !custom.HasInput(1) || custom.HasInput(2) || !custom.Delivered(1, 2, 2) || custom.NumDeliveries() != 2 {
		t.Errorf("custom run wrong: %v", custom)
	}
	for _, bad := range []string{"bogus", "cut:x", "prefix:x", "drop:12@2", "drop:1-2", "drop:x-2@2",
		"drop:1-x@2", "drop:1-2@x", "loss:x", "loss:2",
		"custom:", "custom:N=4;I=;M=1t3r1" /* non-edge */} {
		if _, err := ParseRun(bad, g, 4, inputs, 1); err == nil {
			t.Errorf("ParseRun(%q) succeeded", bad)
		}
	}
}

func TestParseFault(t *testing.T) {
	g := graph.Pair()
	for _, empty := range []string{"", "none", "rand:0"} {
		if p, err := ParseFault(empty, g, 4, 1); err != nil || !p.Empty() {
			t.Errorf("ParseFault(%q) = %v, %v; want the empty plan", empty, p, err)
		}
	}
	if p, err := ParseFault("crash:2@3,flip:1", g, 4, 1); err != nil || p.Empty() {
		t.Errorf("explicit plan: %v, %v", p, err)
	}
	// rand:P samples from the seed: the same seed draws the same plan.
	a, err := ParseFault("rand:1", g, 4, 7)
	if err != nil || a.Empty() {
		t.Fatalf("rand:1: %v, %v", a, err)
	}
	if b, _ := ParseFault("rand:1", g, 4, 7); b.String() != a.String() {
		t.Errorf("rand:1 drew %v then %v from one seed", a, b)
	}
	for _, bad := range []string{"rand:2", "rand:NaN", "rand:-Inf", "rand:", "rand:x", "zzz", "crash:99@1"} {
		if _, err := ParseFault(bad, g, 4, 1); err == nil {
			t.Errorf("ParseFault(%q) succeeded", bad)
		}
	}
}

func TestParseProtocol(t *testing.T) {
	s, err := ParseProtocol("s:0.1")
	if err != nil {
		t.Fatal(err)
	}
	if sp, ok := s.(*core.S); !ok || sp.Epsilon() != 0.1 || sp.Slack() != 0 {
		t.Errorf("s:0.1 = %#v", s)
	}
	slack, err := ParseProtocol("s+2:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if sp, ok := slack.(*core.S); !ok || sp.Slack() != 2 {
		t.Errorf("s+2:0.25 = %#v", slack)
	}
	a, err := ParseProtocol("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(baseline.A); !ok {
		t.Errorf("a = %#v", a)
	}
	axk, err := ParseProtocol("axk:3:any")
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := axk.(*baseline.RepeatedA); !ok || p.K() != 3 || p.Mode() != baseline.CombineAny {
		t.Errorf("axk = %#v", axk)
	}
	if _, err := ParseProtocol("detfullinfo"); err != nil {
		t.Error(err)
	}
	thr, err := ParseProtocol("detthreshold:1/2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(thr.Name(), "1/2") {
		t.Errorf("threshold name %q", thr.Name())
	}
	for _, bad := range []string{"", "zzz", "s:x", "s:-1", "s+x:0.1", "s+1:x",
		"axk:3", "axk:x:all", "axk:3:maybe", "detthreshold:12", "detthreshold:x/2", "detthreshold:1/x"} {
		if _, err := ParseProtocol(bad); err == nil {
			t.Errorf("ParseProtocol(%q) succeeded", bad)
		}
	}
}
