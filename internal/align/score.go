package align

import (
	"math"

	"repro/internal/triangle"
)

// Score computes the local alignment matrix of s1 (vertical) against s2
// (horizontal) in linear memory and returns the bottom row
// M[len(s1)][1..len(s2)]. The row is arena-owned and valid until the
// next call on sc.
//
// Per the bottom-row sufficiency argument of Appendix A, the top-alignment
// search only ever needs this row: its maximum is the split's score.
func (sc *Scratch) Score(p Params, s1, s2 []byte) []int32 {
	return sc.score(p, s1, s2, nil, 0)
}

// ScoreMasked is Score with override masking: cells whose global residue
// pair (y, r+x) is marked in tri are forced to zero (the paper's
// "overriding zeros"), where r is the split position of this matrix.
// tri may be nil.
func (sc *Scratch) ScoreMasked(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) []int32 {
	return sc.score(p, s1, s2, tri, r)
}

// score is the shared kernel. tri == nil disables masking. All working
// memory comes from the receiver; the returned bottom row is arena-owned.
func (sc *Scratch) score(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) []int32 {
	len1, len2 := len(s1), len(s2)
	bottom := growI32(&sc.bottom, len2)
	if len1 == 0 || len2 == 0 {
		for i := range bottom {
			bottom[i] = 0
		}
		return bottom
	}

	prev := growI32(&sc.prev, len2+1) // M[y-1][*]
	cur := growI32(&sc.cur, len2+1)   // M[y][*]
	maxY := growI32(&sc.maxY, len2+1) // column gap running maxima
	for i := range prev {
		prev[i] = 0
		maxY[i] = negInf
	}
	open, ext := p.Gap.Open, p.Gap.Ext

	for y := 1; y <= len1; y++ {
		row := p.Exch.Row(s1[y-1])
		maxX := int32(negInf)
		cur[0] = 0

		masked := false
		base := 0
		if tri != nil {
			base = maskBase(tri, r, y)
			masked = !tri.RowEmpty(base, len2)
		}

		if !masked {
			// fast path: no overridden pair in this row
			for x := 1; x <= len2; x++ {
				d := prev[x-1]
				best := d
				if maxX > best {
					best = maxX
				}
				if my := maxY[x]; my > best {
					best = my
				}
				v := best + int32(row[s2[x-1]])
				if v < 0 {
					v = 0
				}
				cur[x] = v
				g := d - open
				h := g
				if maxX > h {
					h = maxX
				}
				maxX = h - ext
				if my := maxY[x]; my > g {
					g = my
				}
				maxY[x] = g - ext
			}
		} else {
			for x := 1; x <= len2; x++ {
				d := prev[x-1]
				var v int32
				if tri.GetAt(base + x - 1) {
					v = 0
				} else {
					best := d
					if maxX > best {
						best = maxX
					}
					if my := maxY[x]; my > best {
						best = my
					}
					v = best + int32(row[s2[x-1]])
					if v < 0 {
						v = 0
					}
				}
				cur[x] = v
				g := d - open
				h := g
				if maxX > h {
					h = maxX
				}
				maxX = h - ext
				if my := maxY[x]; my > g {
					g = my
				}
				maxY[x] = g - ext
			}
		}
		prev, cur = cur, prev
	}
	sc.prev, sc.cur = prev, cur // keep the swap so reuse stays coherent
	copy(bottom, prev[1:])
	return bottom
}

// Cells returns the number of matrix entries a score computation over
// these operand lengths touches (used by the instrumentation and the
// discrete-event cost model). Non-positive operand lengths contribute no
// cells, so malformed inputs cannot produce a negative count, and the
// product saturates at MaxInt64 rather than wrapping for absurd lengths.
func Cells(len1, len2 int) int64 {
	if len1 <= 0 || len2 <= 0 {
		return 0
	}
	if int64(len1) > math.MaxInt64/int64(len2) {
		return math.MaxInt64
	}
	return int64(len1) * int64(len2)
}
