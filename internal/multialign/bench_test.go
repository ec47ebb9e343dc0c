package multialign

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/seq"
	"repro/internal/triangle"
)

// benchGroupCells is the lane-cell count the group kernels compute for a
// group starting at r0: lane k covers rows 1..r0+k over n columns.
func benchGroupCells(m, r0, lanes int) int64 {
	var cells int64
	for k := 0; k < lanes; k++ {
		r := r0 + k
		if r > m-1 {
			break
		}
		cells += int64(r) * int64(m-r)
	}
	return cells
}

func BenchmarkScoreGroupILP(b *testing.B) {
	for _, n := range []int{1200, 4096} {
		s := seq.SyntheticTitin(n, 1).Codes
		r0 := n / 2
		sc := NewScratch()
		b.Run(fmt.Sprintf("flat/n=%d", n), func(b *testing.B) {
			b.SetBytes(benchGroupCells(n, r0, 4))
			for i := 0; i < b.N; i++ {
				sc.ScoreGroupILPStriped(protein, s, r0, nil, n)
			}
		})
		b.Run(fmt.Sprintf("striped/n=%d", n), func(b *testing.B) {
			b.SetBytes(benchGroupCells(n, r0, 4))
			for i := 0; i < b.N; i++ {
				sc.ScoreGroupILPStriped(protein, s, r0, nil, 0)
			}
		})
	}
}

func BenchmarkScoreGroupAuto8(b *testing.B) {
	for _, n := range []int{1200, 4096} {
		s := seq.SyntheticTitin(n, 1).Codes
		r0 := n / 2
		sc := NewScratch()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(benchGroupCells(n, r0, 8))
			for i := 0; i < b.N; i++ {
				if _, err := sc.ScoreGroupAuto(protein, s, r0, 8, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScoreGroupAuto16 reports per-shape rates: a group near the
// top of the sequence (r0=100: few rows, long rows), in the middle and
// near the end (r0=1100: many short rows, where per-row-pair overhead
// shows), plus a long-sequence group.
func BenchmarkScoreGroupAuto16(b *testing.B) {
	for _, tc := range []struct{ n, r0 int }{{1200, 100}, {1200, 600}, {1200, 1100}, {4096, 2048}} {
		s := seq.SyntheticTitin(tc.n, 1).Codes
		sc := NewScratch()
		b.Run(fmt.Sprintf("n=%d/r0=%d", tc.n, tc.r0), func(b *testing.B) {
			b.SetBytes(benchGroupCells(tc.n, tc.r0, 16))
			for i := 0; i < b.N; i++ {
				g, err := sc.ScoreGroupAuto(protein, s, tc.r0, 16, nil)
				if err != nil {
					b.Fatal(err)
				}
				if g.Rerun {
					b.Fatal("benchmark input saturated the int16 kernel")
				}
			}
		})
	}
}

// BenchmarkScoreGroupAuto16Masked is BenchmarkScoreGroupAuto16 with k
// overridden columns in every row of the group, at random positions:
// the masked-row rate, shown apart from the clean raw-kernel rate.
func BenchmarkScoreGroupAuto16Masked(b *testing.B) {
	const n = 1200
	s := seq.SyntheticTitin(n, 1).Codes
	for _, r0 := range []int{300, 600, 900} {
		for _, k := range []int{0, 1, 4} {
			rng := rand.New(rand.NewSource(int64(r0 + k)))
			tri := triangle.New(n)
			for y := 1; y <= r0+15; y++ {
				for i := 0; i < k; i++ {
					setCol(tri, y, r0, 1+rng.Intn(n-r0))
				}
			}
			sc := NewScratch()
			b.Run(fmt.Sprintf("r0=%d/over=%d", r0, k), func(b *testing.B) {
				b.SetBytes(benchGroupCells(n, r0, 16))
				for i := 0; i < b.N; i++ {
					g, err := sc.ScoreGroupAuto(protein, s, r0, 16, tri)
					if err != nil {
						b.Fatal(err)
					}
					if g.Rerun {
						b.Fatal("benchmark input saturated the int16 kernel")
					}
				}
			})
		}
	}
}
