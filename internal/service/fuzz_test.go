package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// FuzzCanonicalize drives arbitrary job specs through canonicalization
// and checks its contracts on every accepted spec:
//
//   - idempotence: canonicalizing a canonical spec is the identity;
//   - key stability: re-spelling a spec (case, surrounding whitespace)
//     never moves it to a different cache key;
//   - and, implicitly, that no input panics or builds an absurdly large
//     graph/run (the size guards reject those before construction).
func FuzzCanonicalize(f *testing.F) {
	f.Add("mc", "s:0.1", "pair", 10, "all", "good", "", 20000, uint64(1), "", 0, 0.0, "", false, 0)
	f.Add("", "s:0.25", "ring:6", 12, "1,2", "cut:7", "", 5000, uint64(3), "crash:2@4", 7, 0.02, "", false, 30)
	f.Add("mc", "a", "complete:5", 8, "", "", "loss:0.2", 1000, uint64(9), "", 0, 0.0, "", false, 0)
	f.Add("mc", "s:0.5", "grid:3x4", 6, "all", "", "subset", 100, uint64(2), "rand:0.3", 0, 0.1, "", false, 0)
	f.Add("experiment", "", "", 0, "", "", "", 4000, uint64(1992), "", 0, 0.0, "T3", true, 0)
	f.Add("mc", "s:0.1", "hypercube:3", 4, "all", "good", "", 50, uint64(5), "", 0, 0.5, "", false, 1)
	f.Add("mc", "s:0.1", "complete:1000000", 10, "all", "good", "", 100, uint64(1), "", 0, 0.0, "", false, 0)

	f.Fuzz(func(t *testing.T, engine, protocol, graph string, rounds int,
		inputs, runSpec, sampler string, trials int, seed uint64,
		fault string, maxFailures int, ciWidth float64,
		experiment string, quick bool, timeoutSec int) {

		spec := JobSpec{
			Engine: engine, Protocol: protocol, Graph: graph, Rounds: rounds,
			Inputs: inputs, Run: runSpec, Sampler: sampler, Trials: trials,
			Seed: seed, Fault: fault, MaxFailures: maxFailures,
			Precision:  &PrecisionSpec{CIWidth: ciWidth},
			Experiment: experiment, Quick: quick, TimeoutSec: timeoutSec,
		}
		canon, err := spec.Canonicalize()
		if err != nil {
			return // rejected specs only need to not panic
		}
		key := canon.Key()

		// Idempotence: the canonical form is a fixed point with the same
		// key.
		canon2, err := canon.Canonicalize()
		if err != nil {
			t.Fatalf("canonical spec rejected on re-canonicalization: %v\nspec: %+v", err, canon)
		}
		if !reflect.DeepEqual(canon2, canon) {
			t.Fatalf("canonicalization not idempotent:\n first %+v\nsecond %+v", canon, canon2)
		}
		if canon2.Key() != key {
			t.Fatalf("key moved under re-canonicalization: %s vs %s", canon2.Key(), key)
		}

		// Spelling invariance: case and surrounding whitespace never
		// change the meaning, so they must never change the key. The run
		// spec's payload after ':' is case-sensitive (custom runs), so
		// only its name is re-spelled — mirroring normRunSpec.
		respelled := JobSpec{
			Engine:   " " + strings.ToUpper(engine) + "\t",
			Protocol: strings.ToUpper(protocol) + " ",
			Graph:    " " + strings.ToUpper(graph),
			Rounds:   rounds,
			Inputs:   strings.ToUpper(inputs),
			Run:      upperRunName(runSpec),
			Sampler:  strings.ToUpper(sampler),
			Trials:   trials, Seed: seed,
			Fault: strings.ToUpper(fault), MaxFailures: maxFailures,
			Precision:  &PrecisionSpec{CIWidth: ciWidth},
			Experiment: " " + strings.ToLower(experiment), Quick: quick,
			TimeoutSec: timeoutSec,
		}
		rcanon, err := respelled.Canonicalize()
		if err != nil {
			t.Fatalf("accepted spec rejected after re-spelling: %v\noriginal: %+v", err, spec)
		}
		if rcanon.Key() != key {
			t.Fatalf("re-spelling split the key:\n %s (%+v)\n %s (%+v)", key, canon, rcanon.Key(), rcanon)
		}
	})
}

// upperRunName uppercases only the name part of a run spec, leaving the
// case-sensitive payload after ':' alone.
func upperRunName(s string) string {
	name, args, ok := strings.Cut(s, ":")
	if !ok {
		return strings.ToUpper(name)
	}
	return strings.ToUpper(name) + ":" + args
}

// FuzzSweepExpand drives arbitrary request bodies, decoded as the sweep
// endpoint decodes them, through grid expansion and checks its contracts
// on every accepted sweep:
//
//   - a grid whose axis-length product exceeds MaxSweepCells, or whose
//     product times the base's encoded size exceeds maxBodyBytes, is
//     refused;
//   - an accepted grid has between 1 and MaxSweepCells cells;
//   - every cell spec is a canonical fixed point whose Key is the cell's
//     key, and no two cells share a key;
//   - the sweep key is sha256 over sweepKeyVersion and the sorted cell
//     keys.
func FuzzSweepExpand(f *testing.F) {
	// The two grid shapes the sweep-miss benchmark submits.
	f.Add([]byte(`{"base": {"run": "good", "trials": 20000, "seed": 500001}, "axes": {"graphs": ["pair", "complete:4", "ring:6"], "rounds": [6, 8, 10, 12], "epsilon": [0.05, 0.1, 0.2]}}`))
	f.Add([]byte(`{"base": {"protocol": "detfullinfo", "run": "good", "trials": 20000, "seed": 500002}, "axes": {"graphs": ["pair", "complete:4", "ring:6"], "rounds": [6, 8, 10, 12]}}`))
	f.Add([]byte(`{"base": {"trials": 2000}, "axes": {"epsilon": [0.1, 0.2, 0.4]}}`))
	f.Add([]byte(`{"base": {"protocol": "s:0.1", "trials": 2000}, "axes": {"rounds": [8, 10], "fault_rate": [0, 0.25]}}`))
	f.Add([]byte(`{"base": {"protocol": "S:0.1 "}, "axes": {"rounds": [10, 10], "trials": [20000, 20000], "seeds": [0, 1]}}`))
	f.Add([]byte(`{"base": {"protocol": "a"}, "axes": {"seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17], "trials": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var ss SweepSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&ss) != nil {
			return
		}
		a := ss.Axes
		product := 1
		for _, n := range []int{len(a.Graphs), len(a.Rounds), len(a.Epsilon), len(a.FaultRate), len(a.Trials), len(a.Seeds)} {
			if n > 0 {
				product = min(product*n, MaxSweepCells+1)
			}
		}
		cells, key, err := ss.expand()
		base, _ := json.Marshal(ss.Base)
		if product > MaxSweepCells || product*len(base) > maxBodyBytes {
			if err == nil {
				t.Fatalf("grid of %d cells over a %d-byte base accepted: %s", product, len(base), body)
			}
			return
		}
		if err != nil {
			return // rejected sweeps only need to not panic
		}
		if len(cells) < 1 || len(cells) > MaxSweepCells {
			t.Fatalf("grid of %d cells", len(cells))
		}
		keys := make([]string, 0, len(cells))
		seen := make(map[string]bool, len(cells))
		for i, c := range cells {
			canon, err := c.spec.Canonicalize()
			if err != nil {
				t.Fatalf("cell %d spec rejected on re-canonicalization: %v\nspec: %+v", i, err, c.spec)
			}
			if !reflect.DeepEqual(canon, c.spec) {
				t.Fatalf("cell %d spec is not canonical:\n cell %+v\ncanon %+v", i, c.spec, canon)
			}
			if k := c.spec.Key(); k != c.key {
				t.Fatalf("cell %d key %s, its spec keys to %s", i, c.key, k)
			}
			if seen[c.key] {
				t.Fatalf("cell %d repeats key %s", i, c.key)
			}
			seen[c.key] = true
			keys = append(keys, c.key)
		}
		sort.Strings(keys)
		sum := sha256.Sum256([]byte(sweepKeyVersion + "\n" + strings.Join(keys, "\n")))
		if want := hex.EncodeToString(sum[:]); key != want {
			t.Fatalf("sweep key %s, want %s over the sorted cell keys", key, want)
		}
	})
}
