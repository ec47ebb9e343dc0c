package multialign

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// Every group shape the pair kernel meets near the sequence ends: each
// column count n from 1 to 40, so the 15 left-border columns cover part
// or all of the row, with odd and even row counts (an odd count pairs
// the last row with the all-sentinel row), each group run clean and
// masked on one Scratch and held to ScoreMasked and a forced int32x8 run.
func TestPairKernelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	full := seq.SyntheticTitin(42, 3).Codes
	sc := NewScratch()
	odd, even := 0, 0
	for m := 2; m <= len(full); m++ {
		s := full[:m]
		r0s := []int{1, 2}
		for r0 := max(3, m-17); r0 <= m-1; r0++ {
			r0s = append(r0s, r0)
		}
		for _, r0 := range r0s {
			if r0 > m-1 {
				continue
			}
			if min(r0+15, m-1)%2 == 1 {
				odd++
			} else {
				even++
			}
			tri := triangle.New(m)
			for k := 0; k < m; k++ {
				i := 1 + rng.Intn(m-1)
				tri.Set(i, i+1+rng.Intn(m-i))
			}
			what := fmt.Sprintf("n=%d", m-r0)
			checkMaskedGroup(t, sc, protein, s, r0, 16, tri, what+" masked")
			checkMaskedGroup(t, sc, protein, s, r0, 16, nil, what+" clean")
		}
	}
	if odd == 0 || even == 0 {
		t.Fatalf("row counts not covered: %d odd, %d even", odd, even)
	}
}

// plantedRun builds a random sequence of length m over the 20 amino
// acids holding one exact repeat of length run whose diagonal ends at
// matrix row y, global column j, with mismatches on both sides so the
// run cannot extend.
func plantedRun(rng *rand.Rand, m, y, j, run int) []byte {
	s := make([]byte, m)
	for i := range s {
		s[i] = byte(rng.Intn(20))
	}
	a, b := y-run, j-run // 0-based starts of the two copies
	copy(s[b:j], s[a:y])
	for _, d := range []int{-1, -2, -3, -4, run} {
		if a+d >= 0 && b+d < m {
			s[b+d] = (s[a+d] + 1) % 20
		}
	}
	return s
}

// kernelPeak is the largest cell value the int16 kernel computes for the
// group at r0 in rows 1..rows: lane k's cells are those of the unmasked
// matrix of s[:rows] against s[r0+k:], dead rows included.
func kernelPeak(p align.Params, s []byte, r0, rows int) int32 {
	var peak int32
	for k := 0; k < 16 && r0+k <= len(s)-1; k++ {
		for _, row := range align.NewScratch().Matrix(p, s[:rows], s[r0+k:], nil, 0) {
			for _, v := range row {
				peak = max(peak, v)
			}
		}
	}
	return peak
}

// Saturation placed by row in unproven groups: a planted exact repeat
// makes its diagonal's last cell the first to reach satLimit16 (or stop
// one match short of it), in either row of a pair below the capture
// band, in either row of a capture pair, and in the last row, which
// pairs with the all-sentinel row (a one-match-short last row still
// flags if that row computes real cells). The flag must fire exactly when the
// peak reaches the limit, the int32 re-run must be bit-identical, and
// the clean runs exercise the tracking kernels end to end. A saturating
// cell cannot sit in a left-border column — a cell in column c <= 15 is
// below Bias*c — so that placement is held at the kernel level by
// TestRowAVX16FlagBoundary.
func TestPairKernelSaturationPlacement(t *testing.T) {
	if ActiveTier() < TierInt16x16 {
		t.Skip("int16 kernel needs AVX2 and no lower tier cap")
	}
	const hi = 250
	p := align.Params{Exch: scoring.Unit("hi-protein", seq.Protein, hi, -hi), Gap: scoring.Gap{Open: 400, Ext: 100}}
	sat := (satLimit16 + hi - 1) / hi // run length whose last cell reaches the limit
	const r0, m = 160, 360
	yMax := r0 + 15 // odd: the last pair is (yMax, padded row)
	rng := rand.New(rand.NewSource(8))
	sc := NewScratch()
	for _, tc := range []struct {
		name string
		y    int
	}{
		{"below band, row y", r0 - 19},
		{"below band, row y+1", r0 - 20},
		{"capture pair, row y", r0 + 3},
		{"capture pair, row y+1", r0 + 4},
		{"last row, padded pair", yMax},
	} {
		for _, run := range []int{sat - 1, sat} {
			j := max(tc.y, r0) + 5 + run // the copies do not overlap
			s := plantedRun(rng, m, tc.y, j, run)
			if Int16Proven(p, m, r0, 16) {
				t.Fatal("case not constructed correctly: group is provably clean")
			}
			wantRerun := run == sat
			if before := kernelPeak(p, s, r0, tc.y-1); before >= satLimit16 {
				t.Fatalf("%s: rows above %d already reach %d", tc.name, tc.y, before)
			}
			if peak := kernelPeak(p, s, r0, yMax); (peak >= satLimit16) != wantRerun {
				t.Fatalf("%s run=%d: peak %d, want saturation %v", tc.name, run, peak, wantRerun)
			}
			what := fmt.Sprintf("%s run=%d", tc.name, run)
			g := checkMaskedGroup(t, sc, p, s, r0, 16, nil, what)
			if g.Rerun != wantRerun {
				t.Fatalf("%s: Rerun=%v, want %v", what, g.Rerun, wantRerun)
			}
			// A masked group on the same Scratch: overrides in the
			// middle of the planted diagonal halve it, far below the
			// limit.
			tri := triangle.New(m)
			a, b := tc.y-run, j-run
			for d := run/2 - 1; d <= run/2+1; d++ {
				tri.Set(a+d, b+d)
			}
			if g := checkMaskedGroup(t, sc, p, s, r0, 16, tri, what+" masked"); g.Rerun {
				t.Fatalf("%s masked: the cut diagonal still saturated", what)
			}
		}
	}
}
