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

// The 16-lane production kernel must agree with the scalar kernel lane
// for lane, masked and unmasked, across every group position of a small
// sequence — the same contract the 8-lane kernel is held to, including
// groups near the sequence end where most lanes are out of range.
func TestAuto16MatchesScalarExhaustive(t *testing.T) {
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
			g, err := sc.ScoreGroupAuto(dna, s, r0, 16, mask)
			if err != nil {
				t.Fatal(err)
			}
			if g.Rerun {
				t.Fatalf("r0=%d: spurious saturation re-run on tiny scores", r0)
			}
			for i := 0; i < 16; i++ {
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

// Dense random masks stress the masked-row path of the 16-lane kernel
// (overrides as exchange sentinels) against the scalar masked kernel.
func TestAuto16MatchesScalarDenseMask(t *testing.T) {
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
		for _, r0 := range []int{1, 2, 7, 8, 9, 15, 16, 17, m / 2, m - 17, m - 2, m - 1} {
			g, err := sc.ScoreGroupAuto(protein, s, r0, 16, tri)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
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

// Forcing each kernel tier in turn must leave the 16-lane group result
// bit-identical, and the Group must report the tier that served it.
func TestAuto16ForcedTiersIdentical(t *testing.T) {
	s := seq.SyntheticTitin(200, 3).Codes
	m := len(s)
	defer SetKernelTier("auto")
	for _, r0 := range []int{1, 9, m / 2, m - 5} {
		var ref [][]int32
		for _, tier := range []Tier{TierScalar, TierInt32x8, TierInt16x16} {
			if tier > DetectedTier() {
				continue
			}
			if err := SetKernelTier(tier.String()); err != nil {
				t.Fatal(err)
			}
			sc := NewScratch()
			g, err := sc.ScoreGroupAuto(protein, s, r0, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			if g.Tier != tier {
				t.Fatalf("r0=%d forced %s: group reports tier %s", r0, tier, g.Tier)
			}
			if ref == nil {
				ref = make([][]int32, 16)
				for i, b := range g.Bottoms {
					ref[i] = append([]int32(nil), b...)
				}
				continue
			}
			for i := 0; i < 16; i++ {
				if !equalRows(g.Bottoms[i], ref[i]) {
					t.Fatalf("r0=%d tier %s lane %d differs from scalar", r0, tier, i)
				}
			}
		}
	}
}

// A scoring model whose exchange values exceed the int16 lane bias must
// silently narrow to the exact int32 tier — never the saturating kernel.
func TestAuto16WideScoresNarrowToInt32(t *testing.T) {
	wide := scoring.Unit("wide", seq.DNA, 300, -1)
	p := align.Params{Exch: wide, Gap: scoring.PaperGap}
	s := make([]byte, 200)
	r0 := 90
	g, err := NewScratch().ScoreGroupAuto(p, s, r0, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Tier == TierInt16x16 {
		t.Fatal("int16 tier selected for scores beyond the lane bias")
	}
	for i := 0; i < 16; i++ {
		r := r0 + i
		want := align.NewScratch().Score(p, s[:r], s[r:])
		if !equalRows(g.Bottoms[i], want) {
			t.Fatalf("lane %d wrong on wide-score input", i)
		}
	}
}

// satBoundaryCase builds a homopolymer group whose largest computed cell
// value is exactly hi*dim: with a match-only diagonal, cell (y, x) of
// every lane's matrix is hi*min(y, x), and choosing r0 = dim-15 and
// m = r0+dim makes the kernel's computed region (rows to r0+15, n = dim
// columns) peak at exactly hi*dim in lane 0's top row corner.
func satBoundaryCase(hi int16, dim int) (p align.Params, s []byte, r0 int) {
	unit := scoring.Unit("sat", seq.DNA, hi, -1)
	p = align.Params{Exch: unit, Gap: scoring.PaperGap}
	r0 = dim - 15
	s = make([]byte, r0+dim)
	return p, s, r0
}

// Property: driving the peak cell value to either side of the int16
// saturation threshold must flip the sticky flag exactly at the
// boundary — hi*dim < satLimit16 runs clean in int16, hi*dim at or past
// it fires the flag and the transparent int32 re-run — and the bottom
// rows must be bit-identical to the scalar kernel on both sides.
func TestInt16SaturationBoundaryProperty(t *testing.T) {
	if DetectedTier() < TierInt16x16 {
		t.Skip("int16 kernel needs AVX2")
	}
	defer SetKernelTier("auto")
	sc := NewScratch()
	for _, hi := range []int16{11, 37, 101, 250} {
		below := (satLimit16 - 1) / int(hi) // largest dim with hi*dim < satLimit16
		at := (satLimit16 + int(hi) - 1) / int(hi)
		for _, tc := range []struct {
			dim       int
			wantRerun bool
		}{
			{below, false}, // peak = hi*below <= satLimit16-1: clean
			{at, true},     // peak >= satLimit16: flag + re-run
			{at + 1, true},
		} {
			p, s, r0 := satBoundaryCase(hi, tc.dim)
			m := len(s)
			if proven := Int16Proven(p, m, r0, 16); proven == tc.wantRerun {
				t.Fatalf("hi=%d dim=%d: Int16Proven=%v, want %v", hi, tc.dim, proven, !tc.wantRerun)
			}
			if err := SetKernelTier("auto"); err != nil {
				t.Fatal(err)
			}
			g, err := sc.ScoreGroupAuto(p, s, r0, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			if g.Rerun != tc.wantRerun {
				t.Fatalf("hi=%d dim=%d peak=%d: Rerun=%v, want %v",
					hi, tc.dim, int(hi)*tc.dim, g.Rerun, tc.wantRerun)
			}
			wantTier := TierInt16x16
			if tc.wantRerun {
				wantTier = TierInt32x8
			}
			if g.Tier != wantTier {
				t.Fatalf("hi=%d dim=%d: tier %s, want %s", hi, tc.dim, g.Tier, wantTier)
			}
			// All lanes bit-identical to the forced exact-int32 kernel
			// (itself pinned to scalar by the 8-lane differential suite),
			// and lane 0 additionally checked against the scalar kernel.
			if err := SetKernelTier("int32x8"); err != nil {
				t.Fatal(err)
			}
			g2, err := NewScratch().ScoreGroupAuto(p, s, r0, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if !equalRows(g.Bottoms[i], g2.Bottoms[i]) {
					t.Fatalf("hi=%d dim=%d lane %d: int16 path differs from int32", hi, tc.dim, i)
				}
			}
			if want := align.NewScratch().Score(p, s[:r0], s[r0:]); !equalRows(g.Bottoms[0], want) {
				t.Fatalf("hi=%d dim=%d: lane 0 differs from scalar kernel", hi, tc.dim)
			}
		}
	}
}

// An unprovable group (score ceiling past the threshold) whose actual
// scores stay below it must run the flag-tracking int16 kernel without
// firing: a full overridden column halves every diagonal run, so the
// peak value stays near satLimit16/2 while Int16Proven still says no.
func TestInt16UnprovenCleanRun(t *testing.T) {
	if DetectedTier() < TierInt16x16 {
		t.Skip("int16 kernel needs AVX2")
	}
	hi, dim := int16(101), (satLimit16+100)/101 // hi*dim just past the limit
	p, s, r0 := satBoundaryCase(hi, dim)
	m := len(s)
	if Int16Proven(p, m, r0, 16) {
		t.Fatal("case not constructed correctly: group is provably clean")
	}
	cut := r0 + dim/2 // override global column cut in every row
	tri := triangle.New(m)
	for y := 1; y < cut; y++ {
		tri.Set(y, cut)
	}
	g, err := NewScratch().ScoreGroupAuto(p, s, r0, 16, tri)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rerun || g.Tier != TierInt16x16 {
		t.Fatalf("masked clean run: Rerun=%v Tier=%s, want int16 with no re-run", g.Rerun, g.Tier)
	}
	for i := 0; i < 16; i++ {
		r := r0 + i
		if r > m-1 {
			continue
		}
		want := align.NewScratch().ScoreMasked(p, s[:r], s[r:], tri, r)
		if !equalRows(g.Bottoms[i], want) {
			t.Fatalf("lane %d differs from scalar masked kernel", i)
		}
	}
}

// The assembly flag must flip exactly at satLimit16: a cell value of
// satLimit16-1 is clean, satLimit16 sets the lane's sticky bits — in
// either row of a pair, in a left-border column (1) and past the border
// (17), in both tracking pair kernels.
func TestRowAVX16FlagBoundary(t *testing.T) {
	if !hasAVX2 {
		t.Skip("needs AVX2")
	}
	const n, open, ext = 17, 5, 1
	for _, col := range []int{1, n} {
		for _, second := range []bool{false, true} {
			for _, tc := range []struct {
				e        int16
				wantFlag bool
			}{
				{9, false}, // 31990 + 9 = satLimit16-1
				{10, true}, // 31990 + 10 = satLimit16
			} {
				for _, capY := range []bool{false, true} {
					a := make([]int16, 16*n)
					cur := make([]int16, 16*n)
					maxY := make([]int16, 16*n)
					exY := make([]int16, n)
					exY1 := make([]int16, n)
					for i := range maxY {
						maxY[i] = negInf16
					}
					for c := range exY {
						exY[c], exY1[c] = sentinel16, sentinel16
					}
					// The vertical gap chain delivers satLimit16-10 as the
					// best predecessor of the chosen row's cell; row y+1
					// sees it one extension later.
					base := int16(satLimit16 - 10)
					if second {
						base += ext
						exY1[col-1] = tc.e
					} else {
						exY[col-1] = tc.e
					}
					for k := 0; k < 16; k++ {
						maxY[16*(col-1)+k] = base
					}
					var sat uint32
					if capY {
						rowAVX16PairCap(&a[0], &cur[0], &maxY[0], &exY[0], &exY1[0], n, open, ext, &sat)
					} else {
						rowAVX16Pair(&a[0], &maxY[0], &exY[0], &exY1[0], n, open, ext, &sat)
					}
					what := fmt.Sprintf("col=%d second=%v e=%d cap=%v", col, second, tc.e, capY)
					if got := sat != 0; got != tc.wantFlag {
						t.Errorf("%s: sat=%#x, want flag %v", what, sat, tc.wantFlag)
					}
					row := cur
					if second {
						row = a
					}
					if !second && !capY {
						continue // row y lives only in registers
					}
					want := int16(satLimit16 - 10 + int(tc.e))
					if got := row[16*(col-1)]; got != want {
						t.Errorf("%s: lane 0 cell %d, want %d", what, got, want)
					}
					if col == 1 {
						for k := 1; k < 16; k++ {
							if row[k] != 0 {
								t.Errorf("%s: border lane %d cell %d, want 0", what, k, row[k])
							}
						}
					}
				}
			}
		}
	}
}

// n=0 spans must be a no-op for every row kernel: no stores, no flag,
// no crash.
func TestRowKernelsZeroColumns(t *testing.T) {
	if !hasAVX2 {
		t.Skip("needs AVX2")
	}
	a16 := make([]int16, 16)
	cur16 := make([]int16, 16)
	maxY16 := make([]int16, 16)
	ex16 := []int16{7}
	for i := range cur16 {
		a16[i] = 41
		cur16[i] = 42
		maxY16[i] = 43
	}
	var sat uint32
	rowAVX16Pair(&a16[0], &maxY16[0], &ex16[0], &ex16[0], 0, 5, 1, &sat)
	rowAVX16PairFast(&a16[0], &maxY16[0], &ex16[0], &ex16[0], 0, 5, 1)
	rowAVX16PairCap(&a16[0], &cur16[0], &maxY16[0], &ex16[0], &ex16[0], 0, 5, 1, &sat)
	rowAVX16PairCapFast(&a16[0], &cur16[0], &maxY16[0], &ex16[0], &ex16[0], 0, 5, 1)
	if sat != 0 {
		t.Errorf("n=0 set the saturation flag: %#x", sat)
	}
	for i := range cur16 {
		if a16[i] != 41 || cur16[i] != 42 || maxY16[i] != 43 {
			t.Fatalf("n=0 wrote to lane buffers at %d: a=%d cur=%d maxY=%d", i, a16[i], cur16[i], maxY16[i])
		}
	}
	prev32 := make([]int32, 8)
	cur32 := make([]int32, 8)
	maxY32 := make([]int32, 8)
	mx32 := make([]int32, 8)
	ex32 := []int32{7}
	for i := range cur32 {
		cur32[i] = 42
	}
	rowAVX8(&prev32[0], &cur32[0], &maxY32[0], &ex32[0], 0, 5, 1, &mx32[0])
	for i := range cur32 {
		if cur32[i] != 42 {
			t.Fatalf("rowAVX8 n=0 wrote cur[%d]=%d", i, cur32[i])
		}
	}
}
