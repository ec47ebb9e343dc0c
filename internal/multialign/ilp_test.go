package multialign

import (
	"math"
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// flatILP runs the unstriped ILP kernel: a stripe as wide as the
// sequence holds every group's columns.
func flatILP(p align.Params, s []byte, r0 int, tri *triangle.Triangle) *Group {
	return NewScratch().ScoreGroupILPStriped(p, s, r0, tri, len(s))
}

// The ILP kernel must agree with the scalar kernel lane for lane, masked
// and unmasked, across all group positions of a small sequence.
func TestILPMatchesScalarExhaustive(t *testing.T) {
	dna := align.Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap}
	full := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 5, Copies: 6, Seed: 4})
	s := full.Codes
	m := len(s)
	tri := triangle.New(m)
	tri.Set(2, 12)
	tri.Set(3, 13)
	tri.Set(10, 20)
	for _, mask := range []*triangle.Triangle{nil, tri} {
		for r0 := 1; r0 <= m-1; r0++ {
			g := flatILP(dna, s, r0, mask)
			for i := 0; i < 4; i++ {
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

func TestILPMatchesScalarProtein(t *testing.T) {
	full := seq.SyntheticTitin(170, 12)
	s := full.Codes
	m := len(s)
	tri := triangle.New(m)
	for _, p := range [][2]int{{20, 90}, {21, 91}, {50, 140}, {1, 169}} {
		tri.Set(p[0], p[1])
	}
	for _, r0 := range []int{1, 3, 41, 85, 120, m - 4, m - 2, m - 1} {
		g := flatILP(protein, s, r0, tri)
		for i := 0; i < 4; i++ {
			r := r0 + i
			if r > m-1 {
				continue
			}
			want := align.NewScratch().ScoreMasked(protein, s[:r], s[r:], tri, r)
			if !equalRows(g.Bottoms[i], want) {
				t.Fatalf("r0=%d lane %d: rows differ", r0, i)
			}
		}
	}
}

func TestScoreGroupAuto(t *testing.T) {
	full := seq.SyntheticTitin(100, 3)
	s := full.Codes
	m := len(s)
	for _, lanes := range []int{4, 8} {
		g, err := NewScratch().ScoreGroupAuto(protein, s, m-10, lanes, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < lanes; i++ {
			r := m - 10 + i
			if r > m-1 {
				if g.Bottoms[i] != nil {
					t.Errorf("lanes=%d lane %d beyond end not nil", lanes, i)
				}
				continue
			}
			want := align.NewScratch().Score(protein, s[:r], s[r:])
			if !equalRows(g.Bottoms[i], want) {
				t.Fatalf("lanes=%d lane %d differs", lanes, i)
			}
		}
	}
	if _, err := NewScratch().ScoreGroupAuto(protein, s, 0, 4, nil); err == nil {
		t.Error("r0=0 accepted")
	}
	if _, err := NewScratch().ScoreGroupAuto(protein, s, 1, 3, nil); err == nil {
		t.Error("lanes=3 accepted")
	}
	if _, err := NewScratch().ScoreGroupAuto(align.Params{}, s, 1, 4, nil); err == nil {
		t.Error("invalid params accepted")
	}
}

// No saturation: the ILP kernel must handle scores far beyond the SWAR
// lane cap.
func TestILPNoSaturation(t *testing.T) {
	hot := scoring.Unit("hot", seq.DNA, 255, -1)
	p := align.Params{Exch: hot, Gap: scoring.PaperGap}
	n := 400
	s := make([]byte, n)
	r := n / 2
	g := flatILP(p, s, r, nil)
	want := align.NewScratch().Score(p, s[:r], s[r:])
	if align.MaxRowScore(want) <= math.MaxInt16 {
		t.Fatal("workload does not exceed the SWAR cap; test is vacuous")
	}
	if !equalRows(g.Bottoms[0], want) {
		t.Error("ILP kernel wrong on high-score input")
	}
}
