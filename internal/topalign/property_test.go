package topalign

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/seq"
	"repro/internal/stats"
)

// Property: on random repeat-bearing sequences the core invariants hold:
// nonoverlapping pairs, non-increasing scores, positive scores, pairs
// strictly increasing along each path, and the first top equal to the
// best split score.
func TestFindInvariantsProperty(t *testing.T) {
	f := func(seed uint64, lenPick, topsPick uint8) bool {
		n := 60 + int(lenPick)%120
		tops := 2 + int(topsPick)%6
		s := seq.SyntheticTitin(n, seed).Codes
		res, err := Find(s, Config{Params: proteinParams, NumTops: tops})
		if err != nil {
			return false
		}
		seen := map[Pair]bool{}
		prevScore := int32(1 << 30)
		for _, top := range res.Tops {
			if top.Score <= 0 || top.Score > prevScore {
				return false
			}
			prevScore = top.Score
			if top.Split < 1 || top.Split > n-1 {
				return false
			}
			for i, p := range top.Pairs {
				if p.I < 1 || p.J <= p.I || p.J > n {
					return false
				}
				if p.I > top.Split || p.J <= top.Split {
					return false // pairs must respect the split
				}
				if i > 0 && (p.I <= top.Pairs[i-1].I || p.J <= top.Pairs[i-1].J) {
					return false
				}
				if seen[p] {
					return false
				}
				seen[p] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: group-scheduling mode is equivalent to scalar mode on random
// inputs (fuzz version of the fixed-seed equivalence test).
func TestGroupEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, lanePick bool) bool {
		lanes := 4
		if lanePick {
			lanes = 8
		}
		n := 70 + int(seed%80)
		s := seq.SyntheticTitin(n, seed).Codes
		a, err := Find(s, Config{Params: proteinParams, NumTops: 5})
		if err != nil {
			return false
		}
		b, err := Find(s, Config{Params: proteinParams, NumTops: 5, GroupLanes: lanes})
		if err != nil {
			return false
		}
		if len(a.Tops) != len(b.Tops) {
			return false
		}
		for i := range a.Tops {
			if a.Tops[i].Score != b.Tops[i].Score || a.Tops[i].Split != b.Tops[i].Split {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: results are a deterministic function of the input — two runs
// agree pair for pair.
func TestDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := seq.SyntheticTitin(100, seed).Codes
		a, err := Find(s, Config{Params: proteinParams, NumTops: 6})
		if err != nil {
			return false
		}
		b, err := Find(s, Config{Params: proteinParams, NumTops: 6})
		if err != nil {
			return false
		}
		for i := range a.Tops {
			if len(a.Tops[i].Pairs) != len(b.Tops[i].Pairs) {
				return false
			}
			for j := range a.Tops[i].Pairs {
				if a.Tops[i].Pairs[j] != b.Tops[i].Pairs[j] {
					return false
				}
			}
		}
		return len(a.Tops) == len(b.Tops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Engine misuse must error, not panic.
func TestEngineAcceptErrors(t *testing.T) {
	e, err := NewEngine(seq.PaperATGC().Codes, Config{Params: dnaParams, NumTops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AcceptTop(4, 0, NewScratch()); err == nil {
		t.Error("accepting a never-aligned split did not error")
	}
	// align a hopeless split, then try to accept it with no valid ending
	hopeless, err := NewEngine(seq.DNA.MustEncode("ACGT"), Config{Params: dnaParams, NumTops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := hopeless.AlignScore(1, nil, NewScratch()); got != 0 {
		t.Fatalf("split 1 of ACGT scored %d, want 0", got)
	}
	if _, err := hopeless.AcceptTop(1, 0, NewScratch()); err == nil {
		t.Error("accepting a zero-score split did not error")
	}
}

func TestEngineAccessors(t *testing.T) {
	s := seq.PaperATGC().Codes
	e, err := NewEngine(s, Config{Params: dnaParams, NumTops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 12 || e.NumSplits() != 11 {
		t.Errorf("Len/NumSplits = %d/%d", e.Len(), e.NumSplits())
	}
	if e.NumTopsFound() != 0 || len(e.Tops()) != 0 {
		t.Error("fresh engine has tops")
	}
	snap := e.TriangleSnapshot()
	if snap.Count() != 0 || snap == e.Triangle() {
		t.Error("snapshot not an independent empty clone")
	}
	if e.Config().MinScore != 1 {
		t.Errorf("default MinScore = %d", e.Config().MinScore)
	}
	if e.OrigRows().Len() != 0 {
		t.Error("fresh engine has stored rows")
	}
}

// AcceptTop's end hint narrows the traceback matrix without changing
// the result: the recorded end, a stale end and no end must accept the
// same alignment, and the traceback counts only the cells it computed.
// The second acceptance runs against a non-empty triangle, with ends
// recorded by masked realignments.
func TestAcceptTopEndHint(t *testing.T) {
	s := seq.SyntheticTitin(150, 7).Codes
	m := len(s)
	type accepted struct {
		top   TopAlignment
		cells int64
	}
	run := func(hint func(r, end int) int) []accepted {
		cnt := &stats.Counters{}
		e, err := NewEngine(s, Config{Params: proteinParams, NumTops: 2, Counters: cnt})
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		var out []accepted
		for k := 0; k < 2; k++ {
			bestR, bestEnd, best := 0, 0, int32(0)
			for r := 1; r <= m-1; r++ {
				if score, end := e.AlignScore(r, e.Triangle(), sc); score > best {
					bestR, bestEnd, best = r, end, score
				}
			}
			before := cnt.Snapshot().Cells
			top, err := e.AcceptTop(bestR, hint(bestR, bestEnd), sc)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, accepted{top, cnt.Snapshot().Cells - before})
		}
		return out
	}
	full := run(func(r, end int) int { return 0 })
	exact := run(func(r, end int) int { return end })
	stale := run(func(r, end int) int { return end - 1 })
	for k := range full {
		if !reflect.DeepEqual(exact[k].top, full[k].top) || !reflect.DeepEqual(stale[k].top, full[k].top) {
			t.Fatalf("acceptance %d differs across end hints:\nfull  %+v\nexact %+v\nstale %+v",
				k, full[k].top, exact[k].top, stale[k].top)
		}
		r := int64(full[k].top.Split)
		last := full[k].top.Pairs[len(full[k].top.Pairs)-1]
		end := int64(last.J) - r // the alignment ends at the hinted column
		if want := r * (int64(m) - r); full[k].cells != want {
			t.Errorf("acceptance %d without hint: %d traceback cells, want %d", k, full[k].cells, want)
		}
		if want := r * end; exact[k].cells != want {
			t.Errorf("acceptance %d with its end: %d traceback cells, want %d", k, exact[k].cells, want)
		}
		if want := r*(end-1) + r*(int64(m)-r); stale[k].cells != want {
			t.Errorf("acceptance %d with a stale end: %d traceback cells, want %d", k, stale[k].cells, want)
		}
	}
}
