package swar

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/multialign"
	"repro/internal/triangle"
)

// SatLimit is the lane saturation cap of the group kernels.
// AddBiasClamp0's precondition (lane + exchange + bias < 2^15) holds:
// 16000 + 511 < 32768.
const SatLimit = 16000

// CheckParams reports whether the scoring model fits the lane arithmetic
// preconditions of the group kernels.
func CheckParams(p align.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if hi, lo := p.Exch.MaxScore(), p.Exch.MinScore(); hi >= multialign.Bias || lo <= -multialign.Bias {
		return fmt.Errorf("swar: exchange scores [%d,%d] exceed lane bias %d", lo, hi, multialign.Bias)
	}
	if p.Gap.Open+p.Gap.Ext >= SatLimit {
		return fmt.Errorf("swar: gap penalties %d+%d too large for lane arithmetic",
			p.Gap.Open, p.Gap.Ext)
	}
	return nil
}

// ScoreGroup computes the bottom rows of `lanes` neighbouring splits
// (4 or 8) starting at split r0, against override triangle tri (which
// may be nil), with the coarse-grained SIMD scheme of Section 4.1 on
// packed uint16 lanes: four lanes per word, two words per column for
// eight lanes (the SSE and SSE2 analogues). s is the full sequence;
// split r aligns s[:r] with s[r:]. bottoms[i] is the bottom row of split
// r0+i, or nil when that split is out of range (r0+i > len(s)-1).
//
// saturated reports that at least one lane hit SatLimit somewhere, in
// which case the rows are unreliable and the caller must recompute them
// with an exact kernel. Every call allocates its rows.
func ScoreGroup(p align.Params, s []byte, r0, lanes int, tri *triangle.Triangle) (bottoms [][]int32, saturated bool, err error) {
	if err := CheckParams(p); err != nil {
		return nil, false, err
	}
	m := len(s)
	if r0 < 1 || r0 > m-1 {
		return nil, false, fmt.Errorf("swar: group start split %d out of range for length %d", r0, m)
	}
	if lanes != 4 && lanes != 8 {
		return nil, false, fmt.Errorf("swar: unsupported lane count %d (want 4 or 8)", lanes)
	}
	bottoms = make([][]int32, lanes)
	for k := range bottoms {
		if r := r0 + k; r <= m-1 {
			bottoms[k] = make([]int32, m-r)
		}
	}
	if lanes == 4 {
		return bottoms, swar4(p, s, r0, tri, bottoms), nil
	}
	return bottoms, swar8(p, s, r0, tri, bottoms), nil
}

// keepLanes returns a word keeping lanes 0..k-1 (0xFFFF) and zeroing the
// rest. k below 0 keeps nothing; k of 4 or more keeps everything.
func keepLanes(k int) uint64 {
	if k <= 0 {
		return 0
	}
	if k >= 4 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(16*k)) - 1
}

// swar4 is the 4-lane kernel body (one uint64 word per column). bots
// holds the destination bottom rows; reports saturation.
func swar4(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32) bool {
	m := len(s)
	n := m - r0 // shared column count; column c is global position j = r0+c

	// zero boundary row and column; biased-zero lane start for maxY
	prev := make([]uint64, n+1)
	cur := make([]uint64, n+1)
	maxY := make([]uint64, n+1)

	openW := Splat(uint16(p.Gap.Open))
	extW := Splat(uint16(p.Gap.Ext))
	biasW := Splat(multialign.Bias)
	satW := Splat(SatLimit)
	var satAcc uint64

	yMax := r0 + 3
	if yMax > m-1 {
		yMax = m - 1
	}
	for y := 1; y <= yMax; y++ {
		row := p.Exch.Row(s[y-1])
		// lanes whose matrix has no row y (split r0+i < y) are done;
		// keep lanes i with r0+i >= y, i.e. i >= y-r0.
		rowKeep := ^uint64(0)
		if y > r0 {
			rowKeep = ^keepLanes(y - r0) // zero lanes 0..y-r0-1
		}
		var maxX uint64
		base := 0
		masked := false
		if tri != nil {
			// global pair (y, r0+c) has triangle index base+c-1
			base = tri.RowOffset(y) + r0 - y
			masked = !tri.RowEmpty(base, n)
		}
		for c := 1; c <= n; c++ {
			d := prev[c-1]
			e := uint16(int32(row[s[r0+c-1]]) + multialign.Bias)
			best := Max(Max(maxX, maxY[c]), d)
			v := AddBiasClamp0(best, Splat(e), biasW)
			if masked && tri.GetAt(base+c-1) {
				v = 0
			}
			// left-border correction: lane i's matrix starts at column
			// c = i+1, so at column c only lanes 0..c-1 exist.
			keep := rowKeep
			if c < 4 {
				keep &= keepLanes(c)
			}
			v &= keep
			satAcc |= GEMask(v, satW)
			v = Min(v, satW)
			cur[c] = v
			u := SubSat(d, openW)
			maxX = SubSat(Max(u, maxX), extW)
			maxY[c] = SubSat(Max(u, maxY[c]), extW)
		}
		// capture the bottom row of the lane whose matrix ends here
		if k := y - r0; k >= 0 && k < 4 && k < len(bots) && bots[k] != nil {
			bottom := bots[k]
			for c := k + 1; c <= n; c++ {
				bottom[c-k-1] = int32(Lane(cur[c], k))
			}
		}
		prev, cur = cur, prev
	}
	return satAcc != 0
}

// swar8 is the 8-lane kernel body: two words per column, covering
// splits r0..r0+7 (the SSE2 analogue).
func swar8(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32) bool {
	m := len(s)
	n := m - r0

	prev := make([]uint64, 2*(n+1))
	cur := make([]uint64, 2*(n+1))
	maxY := make([]uint64, 2*(n+1))

	openW := Splat(uint16(p.Gap.Open))
	extW := Splat(uint16(p.Gap.Ext))
	biasW := Splat(multialign.Bias)
	satW := Splat(SatLimit)
	var satAcc uint64

	yMax := r0 + 7
	if yMax > m-1 {
		yMax = m - 1
	}
	for y := 1; y <= yMax; y++ {
		row := p.Exch.Row(s[y-1])
		// word 0 holds lanes 0..3 (splits r0..r0+3), word 1 lanes 4..7
		rowKeep0, rowKeep1 := ^uint64(0), ^uint64(0)
		if y > r0 {
			done := y - r0 // lanes 0..done-1 are done
			rowKeep0 = ^keepLanes(done)
			rowKeep1 = ^keepLanes(done - 4)
		}
		var maxX0, maxX1 uint64
		base := 0
		masked := false
		if tri != nil {
			base = tri.RowOffset(y) + r0 - y
			masked = !tri.RowEmpty(base, n)
		}
		for c := 1; c <= n; c++ {
			d0, d1 := prev[2*(c-1)], prev[2*(c-1)+1]
			eW := Splat(uint16(int32(row[s[r0+c-1]]) + multialign.Bias))
			best0 := Max(Max(maxX0, maxY[2*c]), d0)
			best1 := Max(Max(maxX1, maxY[2*c+1]), d1)
			v0 := AddBiasClamp0(best0, eW, biasW)
			v1 := AddBiasClamp0(best1, eW, biasW)
			if masked && tri.GetAt(base+c-1) {
				v0, v1 = 0, 0
			}
			keep0, keep1 := rowKeep0, rowKeep1
			if c < 8 {
				keep0 &= keepLanes(c)
				keep1 &= keepLanes(c - 4)
			}
			v0 &= keep0
			v1 &= keep1
			satAcc |= GEMask(v0, satW) | GEMask(v1, satW)
			v0 = Min(v0, satW)
			v1 = Min(v1, satW)
			cur[2*c], cur[2*c+1] = v0, v1
			u0 := SubSat(d0, openW)
			u1 := SubSat(d1, openW)
			maxX0 = SubSat(Max(u0, maxX0), extW)
			maxX1 = SubSat(Max(u1, maxX1), extW)
			maxY[2*c] = SubSat(Max(u0, maxY[2*c]), extW)
			maxY[2*c+1] = SubSat(Max(u1, maxY[2*c+1]), extW)
		}
		if k := y - r0; k >= 0 && k < 8 && k < len(bots) && bots[k] != nil {
			bottom := bots[k]
			word, lane := k/4, k%4
			for c := k + 1; c <= n; c++ {
				bottom[c-k-1] = int32(Lane(cur[2*c+word], lane))
			}
		}
		prev, cur = cur, prev
	}
	return satAcc != 0
}
