// Package multialign implements the coarse-grained SIMD-style alignment
// scheme of Section 4.1 of the paper: instead of vectorising one matrix,
// it computes four, eight or sixteen *neighbouring* alignment matrices
// concurrently — the matrices of splits r0, r0+1, ..., which differ only
// by a few rows at the bottom and columns at the left and share the
// top-right corner of Figure 4's rectangle diagram.
//
// Corresponding entries of the group's matrices align the same residue
// pair, so one exchange-matrix lookup serves all lanes, and the entries
// are interleaved in memory exactly as in Figure 7 (lane i of word c is
// matrix i's entry in column c).
//
// ScoreGroupAuto serves a three-tier ladder (see Tier): exact int32 ILP
// lanes in pure Go, then on amd64 AVX2 row kernels with eight exact
// int32 lanes or sixteen saturating int16 lanes per vector register.
// Every tier returns bit-identical bottom rows. The paper's SWAR lanes
// live in package swar, which only the Table 2 tool uses.
package multialign

import "math"

// Bias is the lane bias: exchange matrices must have |score| < Bias
// (all embedded matrices do). The int16 tier's exactness argument relies
// on it (see satLimit16), and the SWAR kernels of package swar shift
// exchange values by it into unsigned lane range.
const Bias = 256

// Override sentinels (DESIGN.md section 10). A masked row's exchange
// row carries the sentinel at every overridden column, so the row
// kernels serve masked and clean rows alike: a cell's best predecessor
// max(d, mx, maxY) is never negative (d is a clamped cell value), so
// best+sentinel is negative — adds(best, -32768) in [-32768, -1] for
// int16, best+align.Sentinel32 in [MinInt32, -1] for int32 — and the
// zero clamp yields the overriding zero. The gap chains read only the
// diagonal d, never the exchange value, so they advance exactly as in an
// unmasked column.
const sentinel16 = math.MinInt16

// Group is the result of a group alignment: one bottom row per lane.
// Bottoms[i] is the bottom row of split r0+i, or nil when that split is
// out of range (r0+i > len(s)-1).
//
// Tier and Rerun are observability fields set by ScoreGroupAuto: Tier is
// the kernel tier that produced the rows (after any saturation
// fallback), and Rerun reports that the int16 kernel saturated and the
// group was transparently recomputed in exact int32 — the rows are
// correct either way.
type Group struct {
	R0      int
	Bottoms [][]int32
	Tier    Tier
	Rerun   bool
}
