package align

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// Property: every bottom-row value is non-negative and bounded by the
// best possible chain of matches (min(len1,len2) * max exchange score).
func TestScoreBoundsProperty(t *testing.T) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	maxE := p.Exch.MaxScore()
	f := func(seed uint64, a, b uint8) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		len1, len2 := 1+int(a)%60, 1+int(b)%60
		s1, s2 := randCodes(r, len1), randCodes(r, len2)
		row := NewScratch().Score(p, s1, s2)
		bound := int32(min(len1, len2)) * maxE
		for _, v := range row {
			if v < 0 || v > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: appending a residue to the horizontal sequence adds one
// bottom-row column and leaves the existing columns unchanged, so the
// split score is monotone in suffix extension.
func TestScoreSuffixExtensionProperty(t *testing.T) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	f := func(seed uint64, a, b uint8) bool {
		r := rand.New(rand.NewPCG(seed, 2))
		len1, len2 := 1+int(a)%40, 1+int(b)%40
		s1, s2 := randCodes(r, len1), randCodes(r, len2+1)
		short := NewScratch().Score(p, s1, s2[:len2])
		long := NewScratch().Score(p, s1, s2)
		for i := range short {
			if short[i] != long[i] {
				return false
			}
		}
		return MaxRowScore(long) >= MaxRowScore(short)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: aligning a sequence against an exact copy of itself scores
// exactly the sum of its self-exchange values (the full diagonal, no
// gaps), and that alignment ends in the last column.
func TestPerfectSelfAlignment(t *testing.T) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	f := func(seed uint64, a uint8) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		n := 1 + int(a)%50
		s := randCodes(r, n)
		var want int32
		for _, c := range s {
			want += p.Exch.Score(c, c)
		}
		row := NewScratch().Score(p, s, s)
		// the perfect diagonal ends at the last column; a longer local
		// path cannot beat it since every self-score is the row maximum
		return row[n-1] >= want && MaxRowScore(row) >= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: all kernels agree on random inputs (the fuzz version of the
// fixed-case equivalence tests).
func TestKernelEquivalenceProperty(t *testing.T) {
	p := Params{Exch: scoring.PAM250, Gap: scoring.Gap{Open: 6, Ext: 2}}
	f := func(seed uint64, a, b, w uint8) bool {
		r := rand.New(rand.NewPCG(seed, 4))
		len1, len2 := 1+int(a)%32, 1+int(b)%32
		s1, s2 := randCodes(r, len1), randCodes(r, len2)
		want := ScoreNaive(p, s1, s2, nil, 0)
		got1 := NewScratch().Score(p, s1, s2)
		got2 := NewScratch().ScoreStriped(p, s1, s2, nil, 0, 1+int(w)%10)
		for i := range want {
			if got1[i] != want[i] || got2[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: traceback reconstructs a path whose recomputed score always
// equals the matrix score it started from.
func TestTracebackScoreProperty(t *testing.T) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		s := seq.SyntheticTitin(40+int(seed%40), seed).Codes
		split := 10 + r.IntN(len(s)-20)
		s1, s2 := s[:split], s[split:]
		m := NewScratch().Matrix(p, s1, s2, nil, split)
		endX, score, _ := BestValidEnd(m[len(s1)][1:], nil)
		if endX == 0 {
			return true
		}
		al, err := NewScratch().Traceback(p, m, s1, s2, nil, split, endX)
		if err != nil {
			return false
		}
		return al.Score == score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the masked kernels agree with the naive recurrence when the
// override triangle touches the matrix borders — pairs in the first
// matrix row (y=1) and first column (x=1), where overriding zeros
// interact with the recurrence's implicit zero borders, and at the
// extreme splits r=1 (one-row matrix) and r=m-1 (one-column matrix).
func TestMaskedMatchesNaiveBorderProperty(t *testing.T) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	f := func(seed uint64, a uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		m := 4 + int(a)%44
		s := randCodes(rng, m)
		splits := []int{1, 2, m - 1, 1 + rng.IntN(m-1)}
		for _, split := range splits {
			tri := triangle.New(m)
			s1, s2 := s[:split], s[split:]
			// Border-biased mask: pairs in matrix row y=1, in matrix
			// column x=1, the corner, plus a few interior pairs.
			for k := 0; k < 4; k++ {
				x := 1 + rng.IntN(m-split) // pair (1, split+x): row 1
				tri.Set(1, split+x)
				if y := 1 + rng.IntN(split); y <= split { // pair (y, split+1): column 1
					tri.Set(y, split+1)
				}
			}
			tri.Set(1, split+1) // the corner cell
			for k := 0; k < 3; k++ {
				i := 1 + rng.IntN(m-1)
				j := i + 1 + rng.IntN(m-i)
				tri.Set(i, j)
			}
			want := ScoreNaive(p, s1, s2, tri, split)
			var sc Scratch
			for name, got := range map[string][]int32{
				"masked":  NewScratch().ScoreMasked(p, s1, s2, tri, split),
				"scratch": sc.ScoreMasked(p, s1, s2, tri, split),
				"striped": NewScratch().ScoreStriped(p, s1, s2, tri, split, 32),
			} {
				if len(got) != len(want) {
					t.Logf("seed %d m %d split %d: %s row length %d, want %d", seed, m, split, name, len(got), len(want))
					return false
				}
				for i := range want {
					if got[i] != want[i] {
						t.Logf("seed %d m %d split %d: %s[%d] = %d, want %d", seed, m, split, name, i, got[i], want[i])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the traceback matrix, whose overrides are exchange-row
// sentinels, equals the naive recurrence cell for cell under random
// sparse and dense triangles, with masked and nil-triangle calls
// alternating on one Scratch so a stale sentinel row would surface.
func TestMatrixMatchesNaiveRandomTriangles(t *testing.T) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	var sc Scratch
	f := func(seed uint64, a uint8, dense bool) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		m := 3 + int(a)%60
		s := randCodes(rng, m)
		tri := triangle.New(m)
		pairs := m / 3
		if dense {
			pairs = m * m / 4
		}
		for k := 0; k < pairs; k++ {
			i := 1 + rng.IntN(m-1)
			tri.Set(i, i+1+rng.IntN(m-i))
		}
		split := 1 + rng.IntN(m-1)
		s1, s2 := s[:split], s[split:]
		for _, mask := range []*triangle.Triangle{tri, nil} {
			want := NaiveMatrix(p, s1, s2, mask, split)
			got := sc.Matrix(p, s1, s2, mask, split)
			for y := range want {
				if !equalRows(got[y], want[y]) {
					t.Logf("seed %d m %d split %d masked=%v: row %d differs", seed, m, split, mask != nil, y)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The int32 sentinel bound: a cell's best predecessor lies in
// [0, MaxScore·m] and MaxScore·m < 2^31 (the int32 kernels' own
// no-overflow bound), so best+Sentinel32 neither wraps nor reaches zero.
// The largest int16 exchange score over the longest sequence int32 can
// hold is the extreme case.
func TestSentinel32Bound(t *testing.T) {
	const maxScore = math.MaxInt16
	for _, best := range []int64{0, 1, 1 << 30, maxScore * (math.MaxInt32 / maxScore), math.MaxInt32} {
		sum := best + Sentinel32
		if sum >= 0 || sum < math.MinInt32 {
			t.Errorf("best %d: best+Sentinel32 = %d, want in [MinInt32, -1]", best, sum)
		}
		if v := int32(best) + Sentinel32; v >= 0 {
			t.Errorf("best %d: int32 sum %d not negative", best, v)
		}
	}
}

func randCodes(r *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.IntN(20))
	}
	return out
}
