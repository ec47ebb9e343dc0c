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

// checkMaskedGroup runs one group on sc and holds every lane to the
// scalar masked kernel and, where AVX2 exists, to a forced exact-int32
// run on a fresh Scratch. It returns the group from sc.
func checkMaskedGroup(t *testing.T, sc *Scratch, p align.Params, s []byte, r0, lanes int, tri *triangle.Triangle, what string) *Group {
	t.Helper()
	g, err := sc.ScoreGroupAuto(p, s, r0, lanes, tri)
	if err != nil {
		t.Fatal(err)
	}
	var forced *Group
	if DetectedTier() >= TierInt32x8 {
		active := ActiveTier() // restored below, so a REPRO_KERNEL_TIER cap survives
		if err := SetKernelTier("int32x8"); err != nil {
			t.Fatal(err)
		}
		forced, err = NewScratch().ScoreGroupAuto(p, s, r0, lanes, tri)
		SetKernelTier(active.String())
		if err != nil {
			t.Fatal(err)
		}
	}
	m := len(s)
	for i := 0; i < lanes; i++ {
		r := r0 + i
		if r > m-1 {
			continue
		}
		want := align.NewScratch().ScoreMasked(p, s[:r], s[r:], tri, r)
		if !equalRows(g.Bottoms[i], want) {
			t.Fatalf("%s: m=%d r0=%d lanes=%d lane %d (tier %s): differs from ScoreMasked",
				what, m, r0, lanes, i, g.Tier)
		}
		if forced != nil && !equalRows(forced.Bottoms[i], want) {
			t.Fatalf("%s: m=%d r0=%d lane %d: forced int32x8 differs from ScoreMasked", what, m, r0, i)
		}
	}
	return g
}

// setCol overrides column c (global position r0+c) of matrix row y of
// the group starting at r0, when that residue pair exists.
func setCol(tri *triangle.Triangle, y, r0, c int) {
	if j := r0 + c; y >= 1 && y < j && j <= tri.M() {
		tri.Set(y, j)
	}
}

// Overrides in the columns where the kernels change hands: the 16-lane
// left-border columns 1-15 (where the pair kernel takes the minimum of
// each exchange value, sentinel or not, with the border mask), columns
// 16-17 where its unmasked column-pair loop starts, the 8-lane Go
// prologue columns 1-7 and column 8 where rowAVX8 starts, and the last
// column.
func TestSentinelBorderColumns(t *testing.T) {
	s := seq.SyntheticTitin(90, 4).Codes
	m := len(s)
	sc := NewScratch()
	for _, r0 := range []int{1, 2, 17, 20, 40, m - 17, m - 16, m - 2} {
		n := m - r0
		for _, c := range []int{1, 2, 7, 8, 9, 15, 16, 17, 18, n - 1, n} {
			if c < 1 || c > n {
				continue
			}
			tri := triangle.New(m)
			for y := 1; y <= r0+15; y++ {
				setCol(tri, y, r0, c)
			}
			for _, lanes := range []int{8, 16} {
				checkMaskedGroup(t, sc, protein, s, r0, lanes, tri, "border column")
				checkMaskedGroup(t, sc, protein, s, r0, lanes, nil, "after border column")
			}
		}
	}
}

// The pair kernel sweeps rows (y, y+1) for every odd y. A masked row
// may pair with a clean one either way round, and when both rows align
// the same residue they share a query-profile row: each must mask into
// its own buffer, or one row would run with the other's overrides. The
// sequence repeats a doubled unit, so s[y-1] == s[y] for every odd y and
// long diagonal runs carry each row's overrides down to the bottom rows.
func TestSentinelRowPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	unit := seq.SyntheticTitin(10, 8).Codes
	var s []byte
	for len(s) < 120 {
		for _, b := range unit {
			s = append(s, b, b)
		}
	}
	m := len(s)
	sc := NewScratch()
	for _, tc := range []struct {
		name   string
		masked func(y int) bool
	}{
		{"masked y, clean y+1", func(y int) bool { return y%2 == 1 }},
		{"clean y, masked y+1", func(y int) bool { return y%2 == 0 }},
		{"both masked, shared residue", func(int) bool { return true }},
	} {
		for _, r0 := range []int{18, 19, 40, m / 2, m - 17} {
			n := m - r0
			tri := triangle.New(m)
			for y := 1; y <= r0+15; y++ {
				if !tc.masked(y) {
					continue
				}
				for k := 0; k < n/4; k++ {
					setCol(tri, y, r0, 1+rng.Intn(n))
				}
			}
			for _, lanes := range []int{8, 16} {
				checkMaskedGroup(t, sc, protein, s, r0, lanes, tri, tc.name)
				checkMaskedGroup(t, sc, protein, s, r0, lanes, nil, tc.name+", then nil")
			}
		}
	}
}

// Property: random sparse and dense triangles, on provably clean groups
// (the no-tracking kernels) and unproven ones (saturation tracking on,
// scores staying below the limit), with masked and nil-triangle calls
// alternating on one Scratch so a stale masked row would surface.
func TestSentinelRandomTriangles(t *testing.T) {
	// Match 250 makes Int16Proven fail for groups wider than 128 cells;
	// the steep gap penalties keep random DNA's real scores small.
	hiDNA := align.Params{Exch: scoring.Unit("hi-dna", seq.DNA, 250, -250), Gap: scoring.Gap{Open: 400, Ext: 100}}
	rng := rand.New(rand.NewSource(99))
	sc := NewScratch()
	unprovenInt16 := 0
	for trial := 0; trial < 24; trial++ {
		p, m := protein, 40+rng.Intn(160)
		var s []byte
		if trial%2 == 1 {
			p, m = hiDNA, 300+rng.Intn(60)
			s = make([]byte, m)
			for i := range s {
				s[i] = byte(rng.Intn(4))
			}
		} else {
			s = seq.SyntheticTitin(m, uint64(trial)).Codes
		}
		pairs := m / 4 // sparse
		if trial%4 >= 2 {
			pairs = m * m / 8 // dense
		}
		tri := triangle.New(m)
		for k := 0; k < pairs; k++ {
			i := 1 + rng.Intn(m-1)
			tri.Set(i, i+1+rng.Intn(m-i))
		}
		for _, r0 := range []int{1 + rng.Intn(m-1), 17 + rng.Intn(m-34), m / 2} {
			for _, lanes := range []int{8, 16} {
				g := checkMaskedGroup(t, sc, p, s, r0, lanes, tri, "random triangle")
				if lanes == 16 && g.Tier == TierInt16x16 && !Int16Proven(p, m, r0, lanes) {
					unprovenInt16++
				}
				checkMaskedGroup(t, sc, p, s, r0, lanes, nil, "nil after random triangle")
			}
		}
	}
	if ActiveTier() >= TierInt16x16 && unprovenInt16 == 0 {
		t.Fatal("no masked group ran the saturation-tracking int16 kernel")
	}
}

// A masked group that saturates must re-run in exact int32 with the same
// overrides: the sentinels go into the avx8 exchange rows as well.
func TestSentinelSaturatedRerun(t *testing.T) {
	if ActiveTier() < TierInt16x16 {
		t.Skip("int16 kernel needs AVX2 and no lower tier cap")
	}
	p, s, r0 := satBoundaryCase(250, 200)
	m := len(s)
	tri := triangle.New(m)
	for y := 1; y <= r0+15; y += 3 {
		setCol(tri, y, r0, 1+(y*7)%(m-r0))
	}
	g := checkMaskedGroup(t, NewScratch(), p, s, r0, 16, tri, "saturated")
	if !g.Rerun || g.Tier != TierInt32x8 {
		t.Fatalf("Rerun=%v Tier=%s, want the int32 re-run", g.Rerun, g.Tier)
	}
}

// The int16 sentinel bound: for every reachable best predecessor
// (0 <= best <= 32767; the tracked kernels flag anything from satLimit16
// up) the saturating add of sentinel16 is negative without clipping, so
// the zero clamp yields the overriding zero.
func TestSentinel16Bound(t *testing.T) {
	for _, best := range []int32{0, 1, satLimit16 - 1, satLimit16, math.MaxInt16} {
		sum := best + sentinel16
		if sum >= 0 || sum < math.MinInt16 {
			t.Errorf("best %d: best+sentinel16 = %d, want in [-32768, -1]", best, sum)
		}
	}
}
