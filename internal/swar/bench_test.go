package swar

import (
	"fmt"
	"testing"

	"repro/internal/seq"
)

// Op microbenchmarks: the per-word cost of the packed operators explains
// why SWAR cannot match hardware SSE (a packed MAX is several ALU ops
// here versus one instruction there; see EXPERIMENTS.md).

var sinkU64 uint64

func BenchmarkMax(b *testing.B) {
	x := Pack([Lanes]uint16{100, 2000, 30, 16000})
	y := Pack([Lanes]uint16{200, 1000, 40, 15000})
	for i := 0; i < b.N; i++ {
		sinkU64 = Max(x, sinkU64^y)
	}
}

func BenchmarkAddBiasClamp0(b *testing.B) {
	a := Pack([Lanes]uint16{100, 2000, 30, 15000})
	e := Splat(256 - 4)
	bias := Splat(256)
	for i := 0; i < b.N; i++ {
		sinkU64 = AddBiasClamp0(a^(sinkU64&1), e, bias)
	}
}

func BenchmarkSubSat(b *testing.B) {
	a := Pack([Lanes]uint16{100, 2000, 30, 15000})
	c := Splat(11)
	for i := 0; i < b.N; i++ {
		sinkU64 = SubSat(a^(sinkU64&1), c)
	}
}

func BenchmarkScoreGroup(b *testing.B) {
	for _, lanes := range []int{4, 8} {
		n := 1200
		s := seq.SyntheticTitin(n, 1).Codes
		r0 := n / 2
		b.Run(fmt.Sprintf("lanes=%d/n=%d", lanes, n), func(b *testing.B) {
			var cells int64
			for k := 0; k < lanes && r0+k <= n-1; k++ {
				cells += int64(r0+k) * int64(n-r0-k)
			}
			b.SetBytes(cells)
			for i := 0; i < b.N; i++ {
				if _, _, err := ScoreGroup(protein, s, r0, lanes, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
