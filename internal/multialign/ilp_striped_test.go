package multialign

import (
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// The striped ILP kernel must be bit-identical to the unstriped one for
// all stripe widths, group starts, and masks.
func TestStripedILPMatchesUnstriped(t *testing.T) {
	full := seq.SyntheticTitin(160, 14)
	s := full.Codes
	m := len(s)
	tri := triangle.New(m)
	for _, p := range [][2]int{{8, 70}, {9, 71}, {40, 120}, {100, 159}} {
		tri.Set(p[0], p[1])
	}
	for _, mask := range []*triangle.Triangle{nil, tri} {
		for _, r0 := range []int{1, 2, 5, 60, 100, m - 4, m - 1} {
			want := flatILP(protein, s, r0, mask)
			for _, w := range []int{1, 3, 7, 16, 50, 99, 160, 0} {
				got := NewScratch().ScoreGroupILPStriped(protein, s, r0, mask, w)
				for k := 0; k < 4; k++ {
					if (want.Bottoms[k] == nil) != (got.Bottoms[k] == nil) {
						t.Fatalf("r0=%d w=%d lane %d nil-ness differs", r0, w, k)
					}
					if !equalRows(got.Bottoms[k], want.Bottoms[k]) {
						t.Fatalf("mask=%v r0=%d w=%d lane %d: rows differ",
							mask != nil, r0, w, k)
					}
				}
			}
		}
	}
}

// Exhaustive sweep on a small DNA sequence against the scalar kernel.
func TestStripedILPMatchesScalarExhaustive(t *testing.T) {
	dna := align.Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap}
	full := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 6, Copies: 5, Seed: 9})
	s := full.Codes
	m := len(s)
	for r0 := 1; r0 <= m-1; r0++ {
		g := NewScratch().ScoreGroupILPStriped(dna, s, r0, nil, 5)
		for i := 0; i < 4; i++ {
			r := r0 + i
			if r > m-1 {
				continue
			}
			want := align.NewScratch().Score(dna, s[:r], s[r:])
			if !equalRows(g.Bottoms[i], want) {
				t.Fatalf("r0=%d lane %d: rows differ\n got %v\nwant %v",
					r0, i, g.Bottoms[i], want)
			}
		}
	}
}
