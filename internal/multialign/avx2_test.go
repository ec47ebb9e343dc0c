package multialign

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// The production 8-lane kernel (AVX2 where available, ILP blocks
// otherwise) must agree with the scalar kernel lane for lane, masked and
// unmasked, across every group position of a small sequence — the same
// contract the ILP kernel is held to. A single Scratch is reused across
// all calls so the test also exercises arena reset on reuse.
func TestAuto8MatchesScalarExhaustive(t *testing.T) {
	dna := align.Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap}
	full := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 7, Copies: 6, Seed: 9})
	s := full.Codes
	m := len(s)
	tri := triangle.New(m)
	tri.Set(2, 12)
	tri.Set(3, 13)
	tri.Set(10, 20)
	tri.Set(1, m)
	sc := NewScratch()
	for _, mask := range []*triangle.Triangle{nil, tri} {
		for r0 := 1; r0 <= m-1; r0++ {
			g, err := sc.ScoreGroupAuto(dna, s, r0, 8, mask)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				r := r0 + i
				if r > m-1 {
					if g.Bottoms[i] != nil {
						t.Fatalf("r0=%d lane %d beyond last split not nil", r0, i)
					}
					continue
				}
				want := align.NewScratch().ScoreMasked(dna, s[:r], s[r:], mask, r)
				if !equalRows(g.Bottoms[i], want) {
					t.Fatalf("mask=%v r0=%d lane %d: rows differ\n got %v\nwant %v",
						mask != nil, r0, i, g.Bottoms[i], want)
				}
			}
		}
	}
}

// Dense random masks stress the masked-row path (overrides as exchange
// sentinels) against the scalar masked kernel.
func TestAuto8MatchesScalarDenseMask(t *testing.T) {
	full := seq.SyntheticTitin(150, 21)
	s := full.Codes
	m := len(s)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		tri := triangle.New(m)
		for k := 0; k < 40+trial*60; k++ {
			i := 1 + rng.Intn(m-1)
			j := i + 1 + rng.Intn(m-i)
			tri.Set(i, j)
		}
		sc := NewScratch()
		for _, r0 := range []int{1, 2, 7, 8, 9, m / 2, m - 9, m - 2, m - 1} {
			g, err := sc.ScoreGroupAuto(protein, s, r0, 8, tri)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				r := r0 + i
				if r > m-1 {
					continue
				}
				want := align.NewScratch().ScoreMasked(protein, s[:r], s[r:], tri, r)
				if !equalRows(g.Bottoms[i], want) {
					t.Fatalf("trial=%d r0=%d lane %d: rows differ", trial, r0, i)
				}
			}
		}
	}
}

// High scores must stay exact: the production kernel has int32 lanes and
// no saturation cap.
func TestAuto8NoSaturation(t *testing.T) {
	hot := scoring.Unit("hot", seq.DNA, 255, -1)
	p := align.Params{Exch: hot, Gap: scoring.PaperGap}
	n := 400
	s := make([]byte, n)
	r0 := n / 2
	g, err := NewScratch().ScoreGroupAuto(p, s, r0, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := align.NewScratch().Score(p, s[:r0], s[r0:])
	if align.MaxRowScore(want) <= math.MaxInt16 {
		t.Fatal("workload does not exceed the SWAR cap; test is vacuous")
	}
	if !equalRows(g.Bottoms[0], want) {
		t.Error("8-lane kernel wrong on high-score input")
	}
}

func TestTriangleNextSetSegments(t *testing.T) {
	tri := triangle.New(40)
	tri.Set(3, 10)
	tri.Set(3, 30)
	tri.Set(5, 6)
	a := tri.Index(3, 10)
	b := tri.Index(3, 30)
	c := tri.Index(5, 6)
	if got := tri.NextSet(0, tri.Pairs()); got != a {
		t.Errorf("first set: got %d want %d", got, a)
	}
	if got := tri.NextSet(a+1, tri.Pairs()); got != b {
		t.Errorf("after first: got %d want %d", got, b)
	}
	if got := tri.NextSet(a+1, b); got != -1 {
		t.Errorf("exclusive end: got %d want -1", got)
	}
	if got := tri.NextSet(b+1, tri.Pairs()); got != c {
		t.Errorf("third: got %d want %d", got, c)
	}
	if got := tri.NextSet(c+1, tri.Pairs()); got != -1 {
		t.Errorf("past last: got %d want -1", got)
	}
	if got := tri.NextSet(-5, a+1); got != a {
		t.Errorf("clamped from: got %d want %d", got, a)
	}
}
