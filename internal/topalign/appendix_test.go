package topalign

import (
	"testing"

	"repro/internal/align"
	"repro/internal/seq"
	"repro/internal/stats"
)

// TestBottomRowSufficiency verifies Appendix A's key observation
// empirically: the best alignment over ALL cells of ALL split matrices
// always equals the best score found in the bottom rows alone ("the top
// alignment will end in one of the matrices' bottom rows").
func TestBottomRowSufficiency(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		s := seq.SyntheticTitin(80, seed).Codes
		m := len(s)
		var bestBottom, bestAnywhere int32
		for r := 1; r <= m-1; r++ {
			mtx := align.NewScratch().Matrix(proteinParams, s[:r], s[r:], nil, r)
			for y := 1; y <= r; y++ {
				for x := 1; x <= m-r; x++ {
					if mtx[y][x] > bestAnywhere {
						bestAnywhere = mtx[y][x]
					}
				}
			}
			if rowMax := align.MaxRowScore(mtx[r][1:]); rowMax > bestBottom {
				bestBottom = rowMax
			}
		}
		if bestBottom != bestAnywhere {
			t.Errorf("seed %d: bottom-row max %d != whole-matrix max %d (Appendix A violated)",
				seed, bestBottom, bestAnywhere)
		}
	}
}

// TestShadowRejectionFires confirms the Appendix A shadow mechanism is
// active on repeat-rich input: realignments reject at least some
// bottom-row endings whose values changed, and the engine still produces
// valid nonoverlapping alignments.
func TestShadowRejectionFires(t *testing.T) {
	c := &stats.Counters{}
	s := seq.SyntheticTitin(250, 3).Codes
	res, err := Find(s, Config{Params: proteinParams, NumTops: 15, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) != 15 {
		t.Fatalf("found %d tops", len(res.Tops))
	}
	if c.Snapshot().ShadowEnds == 0 {
		t.Error("no shadow endings rejected on repeat-rich input; the mechanism never fired")
	}
}

// TestShadowRejectedScoresAreSuboptimal: every accepted top alignment's
// score must equal the score that alignment would get in the ORIGINAL
// (unmasked) matrix of its split — the definition of a non-shadow
// alignment. We recompute path scores in the unmasked matrix to check.
func TestAcceptedAlignmentsAreOriginal(t *testing.T) {
	s := seq.SyntheticTitin(150, 6).Codes
	res, err := Find(s, Config{Params: proteinParams, NumTops: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, top := range res.Tops {
		// recompute the path's score directly from the scoring model
		var got int32
		for i, p := range top.Pairs {
			got += proteinParams.Exch.Score(s[p.I-1], s[p.J-1])
			if i > 0 {
				di := p.I - top.Pairs[i-1].I - 1
				dj := p.J - top.Pairs[i-1].J - 1
				got -= proteinParams.Gap.Cost(di)
				got -= proteinParams.Gap.Cost(dj)
			}
		}
		if got != top.Score {
			t.Errorf("top %d: path recomputes to %d, reported %d", top.Index, got, top.Score)
		}
		// and the unmasked matrix of its split must contain that score
		// at the path's ending cell
		r := top.Split
		mtx := align.NewScratch().Matrix(proteinParams, s[:r], s[r:], nil, r)
		end := top.Pairs[len(top.Pairs)-1]
		if mtx[end.I][end.J-r] < top.Score {
			t.Errorf("top %d: unmasked matrix value %d at ending < accepted score %d (shadow accepted?)",
				top.Index, mtx[end.I][end.J-r], top.Score)
		}
	}
}
