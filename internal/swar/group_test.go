package swar

import (
	"slices"
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

var protein = align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}

// TestGroupMatchesScalar checks that every lane of the 4- and 8-lane
// kernels reproduces the scalar kernel's bottom row exactly, for group
// starts across the whole sequence including partial groups at the end.
func TestGroupMatchesScalar(t *testing.T) {
	full := seq.SyntheticTitin(160, 5)
	s := full.Codes
	m := len(s)
	for _, lanes := range []int{4, 8} {
		for _, r0 := range []int{1, 2, 7, 80, m - 2, m - 3, m - lanes, m - 1} {
			if r0 < 1 {
				continue
			}
			bots, sat, err := ScoreGroup(protein, s, r0, lanes, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sat {
				t.Fatalf("unexpected saturation at r0=%d", r0)
			}
			for i := 0; i < lanes; i++ {
				r := r0 + i
				if r > m-1 {
					if bots[i] != nil {
						t.Errorf("lanes=%d r0=%d: lane %d beyond last split is not nil", lanes, r0, i)
					}
					continue
				}
				want := align.NewScratch().Score(protein, s[:r], s[r:])
				if !slices.Equal(bots[i], want) {
					t.Fatalf("lanes=%d r0=%d lane %d (split %d): rows differ\n got %v\nwant %v",
						lanes, r0, i, r, bots[i], want)
				}
			}
		}
	}
}

func TestGroupMatchesScalarMasked(t *testing.T) {
	full := seq.SyntheticTitin(140, 8)
	s := full.Codes
	m := len(s)
	tri := triangle.New(m)
	for _, p := range [][2]int{{5, 60}, {6, 61}, {7, 62}, {30, 100}, {70, 139}, {1, 2}} {
		tri.Set(p[0], p[1])
	}
	for _, lanes := range []int{4, 8} {
		for _, r0 := range []int{1, 4, 28, 59, 100, m - lanes} {
			bots, _, err := ScoreGroup(protein, s, r0, lanes, tri)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < lanes; i++ {
				r := r0 + i
				if r > m-1 {
					continue
				}
				want := align.NewScratch().ScoreMasked(protein, s[:r], s[r:], tri, r)
				if !slices.Equal(bots[i], want) {
					t.Fatalf("masked lanes=%d r0=%d lane %d: rows differ", lanes, r0, i)
				}
			}
		}
	}
}

// TestGroupExhaustiveSmall sweeps every group start on a small sequence
// so all border-correction paths (left columns, bottom rows) are hit.
func TestGroupExhaustiveSmall(t *testing.T) {
	dna := align.Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap}
	full := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 4, Copies: 6, Seed: 2})
	s := full.Codes
	m := len(s)
	for _, lanes := range []int{4, 8} {
		for r0 := 1; r0 <= m-1; r0++ {
			bots, _, err := ScoreGroup(dna, s, r0, lanes, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < lanes; i++ {
				r := r0 + i
				if r > m-1 {
					continue
				}
				want := align.NewScratch().Score(dna, s[:r], s[r:])
				if !slices.Equal(bots[i], want) {
					t.Fatalf("lanes=%d r0=%d lane %d: rows differ\n got %v\nwant %v",
						lanes, r0, i, bots[i], want)
				}
			}
		}
	}
}

func TestSaturationDetected(t *testing.T) {
	// 255-point matches over a long identical repeat push lane scores
	// past SatLimit; the kernel must flag it rather than return wrong rows.
	hot := scoring.Unit("hot", seq.DNA, 255, -1)
	p := align.Params{Exch: hot, Gap: scoring.PaperGap}
	n := 400
	s := make([]byte, n) // all 'A': maximal self-similarity
	_, sat, err := ScoreGroup(p, s, n/2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Fatal("expected saturation flag")
	}
	// sanity: scalar kernel exceeds the lane cap, confirming saturation
	// was real
	want := align.NewScratch().Score(p, s[:n/2], s[n/2:])
	if align.MaxRowScore(want) <= SatLimit {
		t.Fatalf("test workload too small: scalar max %d", align.MaxRowScore(want))
	}
}

func TestCheckParams(t *testing.T) {
	if err := CheckParams(protein); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	big := scoring.Unit("big", seq.DNA, 300, -300)
	if err := CheckParams(align.Params{Exch: big, Gap: scoring.PaperGap}); err == nil {
		t.Error("oversized exchange scores accepted")
	}
	if err := CheckParams(align.Params{Exch: scoring.PaperDNA, Gap: scoring.Gap{Open: 20000, Ext: 1}}); err == nil {
		t.Error("oversized gap penalties accepted")
	}
	if err := CheckParams(align.Params{Gap: scoring.PaperGap}); err == nil {
		t.Error("nil matrix accepted")
	}
}

func TestScoreGroupErrors(t *testing.T) {
	s := seq.DNA.MustEncode("ACGTACGT")
	if _, _, err := ScoreGroup(protein, s, 0, 4, nil); err == nil {
		t.Error("r0=0 accepted")
	}
	if _, _, err := ScoreGroup(protein, s, 8, 4, nil); err == nil {
		t.Error("r0=len(s) accepted")
	}
	if _, _, err := ScoreGroup(protein, s, 1, 5, nil); err == nil {
		t.Error("lane count 5 accepted")
	}
}

func TestKeepLanes(t *testing.T) {
	cases := []struct {
		k    int
		want uint64
	}{
		{-1, 0}, {0, 0},
		{1, 0x0000_0000_0000_FFFF},
		{2, 0x0000_0000_FFFF_FFFF},
		{3, 0x0000_FFFF_FFFF_FFFF},
		{4, ^uint64(0)}, {7, ^uint64(0)},
	}
	for _, c := range cases {
		if got := keepLanes(c.k); got != c.want {
			t.Errorf("keepLanes(%d) = %#x, want %#x", c.k, got, c.want)
		}
	}
}
