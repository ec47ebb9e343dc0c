package align

import (
	"fmt"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

func benchOperands(n int) ([]byte, []byte) {
	s := seq.SyntheticTitin(n, 1).Codes
	return s[:n/2], s[n/2:]
}

func BenchmarkScore(b *testing.B) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	for _, n := range []int{512, 2048, 8192} {
		s1, s2 := benchOperands(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sc := NewScratch()
			b.SetBytes(Cells(len(s1), len(s2)))
			for i := 0; i < b.N; i++ {
				sc.Score(p, s1, s2)
			}
		})
	}
}

func BenchmarkScoreMasked(b *testing.B) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	n := 2048
	s1, s2 := benchOperands(n)
	tri := triangle.New(n)
	// a realistic sparse triangle: a few short alignments marked
	for i := 0; i < 60; i++ {
		tri.Set(100+i, 1200+i)
	}
	sc := NewScratch()
	b.Run("sparse-mask", func(b *testing.B) {
		b.SetBytes(Cells(len(s1), len(s2)))
		for i := 0; i < b.N; i++ {
			sc.ScoreMasked(p, s1, s2, tri, n/2)
		}
	})
	b.Run("nil-mask", func(b *testing.B) {
		b.SetBytes(Cells(len(s1), len(s2)))
		for i := 0; i < b.N; i++ {
			sc.ScoreMasked(p, s1, s2, nil, n/2)
		}
	})
}

func BenchmarkScoreStriped(b *testing.B) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	n := 8192
	s1, s2 := benchOperands(n)
	for _, w := range []int{256, 2048, 1 << 20} {
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			sc := NewScratch()
			b.SetBytes(Cells(len(s1), len(s2)))
			for i := 0; i < b.N; i++ {
				sc.ScoreStriped(p, s1, s2, nil, n/2, w)
			}
		})
	}
}

func BenchmarkMatrixAndTraceback(b *testing.B) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	n := 1024
	s1, s2 := benchOperands(n)
	// the rows of a few accepted alignments: one override per row on
	// three diagonals, as a realignment after three tops sees them
	tri := triangle.New(n)
	for y := 1; y < n/2; y++ {
		for _, off := range []int{n / 2, n/2 + 100, n/2 + 300} {
			if j := y + off; j <= n {
				tri.Set(y, j)
			}
		}
	}
	for _, tc := range []struct {
		name string
		tri  *triangle.Triangle
	}{{"nil-mask", nil}, {"masked", tri}} {
		sc := NewScratch()
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(Cells(len(s1), len(s2)))
			for i := 0; i < b.N; i++ {
				m := sc.Matrix(p, s1, s2, tc.tri, n/2)
				endX, _, _ := BestValidEnd(m[len(s1)][1:], nil)
				if endX > 0 {
					if _, err := sc.Traceback(p, m, s1, s2, tc.tri, n/2, endX); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
