package main

import (
	"bufio"
	"io"
	"strconv"
	"testing"

	"repro"
)

func newTestRun() *run {
	return &run{Metrics: map[string]metric{}, out: bufio.NewWriter(io.Discard)}
}

// The negative control: a report with one mutated pair must count as a
// failed, mismatched operation, so error_frac becomes non-zero.
func TestMutatedPairCountsAsError(t *testing.T) {
	p := famServe.generate([]uint64{1})[0]
	if _, err := famServe.attachRefs([]*protein{p}); err != nil {
		t.Fatal(err)
	}
	rep, err := repro.Analyze("t", p.Residues, famServe.Ref)
	if err != nil {
		t.Fatal(err)
	}
	r := newTestRun()
	r.Attempted++
	if !r.check(rep, p.Want) || r.Failed != 0 {
		t.Fatalf("clean report rejected: failed=%d", r.Failed)
	}
	mutateOnePair(rep)
	r.Attempted++
	if r.check(rep, p.Want) {
		t.Fatal("mutated report accepted")
	}
	if r.Failed != 1 || r.Mismatched != 1 {
		t.Fatalf("failed=%d mismatched=%d, want 1 and 1", r.Failed, r.Mismatched)
	}
	if ef := ratio(float64(r.Failed), float64(r.Attempted)); ef != 0.5 {
		t.Fatalf("error_frac %v, want 0.5", ef)
	}

	// -mutate-one applies the same corruption to the first report only.
	rep, _ = repro.Analyze("t", p.Residues, famServe.Ref)
	r = newTestRun()
	r.MutateOne = true
	if r.check(rep, p.Want) || r.Failed != 1 {
		t.Fatalf("-mutate-one: first check passed or failed=%d", r.Failed)
	}
	rep, _ = repro.Analyze("t", p.Residues, famServe.Ref)
	if !r.check(rep, p.Want) || r.Failed != 1 {
		t.Fatalf("-mutate-one: second check failed, failed=%d", r.Failed)
	}
}

// The stored digests must be what the reference engine computes now.
// The serving family is cheap enough to spot-check here; -gen-refs
// recomputes every family.
func TestStoredRefsMatchReferenceEngine(t *testing.T) {
	for _, g := range []uint64{1, 2, 104} {
		want, ok := storedRefs[famServe.Name][strconv.FormatUint(g, 10)]
		if !ok {
			t.Fatalf("no stored digest for %s/%d", famServe.Name, g)
		}
		p := famServe.generate([]uint64{g})[0]
		rep, err := repro.Analyze("t", p.Residues, famServe.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(rep); got != want {
			t.Errorf("%s/%d: reference digest %s, stored %s", famServe.Name, g, got, want)
		}
	}
	for _, f := range families {
		if n := len(storedRefs[f.Name]); n != f.Universe {
			t.Errorf("%s: %d stored digests, universe %d", f.Name, n, f.Universe)
		}
	}
}

// The traced decomposition must produce the report repro.Analyze does,
// on the exact path and on the balanced prefilter path.
func TestDecompositionMatchesAnalyze(t *testing.T) {
	p := famServe.generate([]uint64{3})[0]
	for _, o := range []repro.Options{
		{NumTops: 10, Lanes: 16},
		{NumTops: 10, Lanes: 16, Workers: 2},
		{NumTops: 10, Preset: "balanced"},
	} {
		want, err := repro.Analyze("t", p.Residues, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := analyzeTraced(newTracer(), newLayers(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		if digest(got) != digest(want) {
			t.Errorf("%+v: decomposed digest %s, Analyze %s", o, digest(got), digest(want))
		}
	}
}

// The same seed gives the same inputs; another seed gives other ones.
func TestInputsFollowSeed(t *testing.T) {
	a, b := famExact.pick(7, 12), famExact.pick(7, 12)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 picked %v then %v", a, b)
		}
	}
	c := famExact.pick(8, 12)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatalf("seeds 7 and 8 picked the same pool %v", a)
	}
}
