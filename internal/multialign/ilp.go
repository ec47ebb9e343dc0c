package multialign

import (
	"repro/internal/align"
	"repro/internal/triangle"
)

// ilp4 is the flat 4-lane kernel body: the four neighbouring matrices
// of splits r0..r0+3, each lane kept in its own int32 variable instead
// of packed into one word.
//
// It keeps everything that makes the paper's coarse-grained SIMD scheme
// fast on a superscalar core — the Figure 7 interleaved memory layout,
// one exchange lookup and one override-triangle probe shared by all four
// matrices, one set of loop control — while exposing four independent
// dependency chains to the CPU's execution ports (the Gotoh recurrence
// is latency-bound on its running maxima, so independent chains overlap
// where a single matrix cannot). Scores are exact int32, with no
// saturation limit.
//
// bots holds the destination bottom rows: bots[k] receives split r0+k's
// row (nil lanes are skipped). All working memory comes from the
// receiver.
func (sc *Scratch) ilp4(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32) {
	m := len(s)
	n := m - r0 // column c is global position j = r0+c

	// Figure 7 layout: four interleaved lane entries per column.
	prev := grow(&sc.prev, 4*(n+1))
	cur := grow(&sc.cur, 4*(n+1))
	maxY := grow(&sc.maxY, 4*(n+1))
	for i := range prev {
		prev[i] = 0 // zero boundary row (arena may hold stale values)
		maxY[i] = negInf
	}
	// cur[0..3] is never written but becomes prev[0..3] (the zero
	// boundary column block) after the first swap.
	cur[0], cur[1], cur[2], cur[3] = 0, 0, 0, 0
	open, ext := p.Gap.Open, p.Gap.Ext

	yMax := r0 + 3
	if yMax > m-1 {
		yMax = m - 1
	}
	for y := 1; y <= yMax; y++ {
		row := p.Exch.Row(s[y-1])
		mx0, mx1, mx2, mx3 := int32(negInf), int32(negInf), int32(negInf), int32(negInf)
		base := 0
		masked := false
		if tri != nil {
			base = tri.RowOffset(y) + r0 - y
			masked = !tri.RowEmpty(base, n)
		}

		// Left-border prologue: lane k's matrix starts at column k+1, so
		// at columns 1..3 the not-yet-started lanes are forced to zero
		// (their forced-zero diagonals reproduce the boundary column).
		// Lanes whose matrix already ended (rows above were captured)
		// need no correction: their values are never read again and
		// cannot influence other lanes.
		pro := 3
		if n < pro {
			pro = n
		}
		for c := 1; c <= pro; c++ {
			o := 4 * c
			d0, d1, d2, d3 := prev[o-4], prev[o-3], prev[o-2], prev[o-1]
			e := int32(row[s[r0+c-1]])
			over := masked && tri.GetAt(base+c-1)
			v0 := cellILP(d0, mx0, maxY[o], e, over)
			v1 := cellILP(d1, mx1, maxY[o+1], e, over)
			v2 := cellILP(d2, mx2, maxY[o+2], e, over)
			v3 := cellILP(d3, mx3, maxY[o+3], e, over)
			if c <= 1 {
				v1 = 0
			}
			if c <= 2 {
				v2 = 0
			}
			v3 = 0 // c <= 3 always in the prologue
			cur[o], cur[o+1], cur[o+2], cur[o+3] = v0, v1, v2, v3
			g0, g1, g2, g3 := d0-open, d1-open, d2-open, d3-open
			mx0 = maxG(g0, mx0) - ext
			mx1 = maxG(g1, mx1) - ext
			mx2 = maxG(g2, mx2) - ext
			mx3 = maxG(g3, mx3) - ext
			maxY[o] = maxG(g0, maxY[o]) - ext
			maxY[o+1] = maxG(g1, maxY[o+1]) - ext
			maxY[o+2] = maxG(g2, maxY[o+2]) - ext
			maxY[o+3] = maxG(g3, maxY[o+3]) - ext
		}

		// Main loop: all four lanes interior, no border branches. Slice
		// windows give the compiler one bounds check per column.
		for c := pro + 1; c <= n; c++ {
			o := 4 * c
			d := prev[o-4 : o : o]
			my := maxY[o : o+4 : o+4]
			cc := cur[o : o+4 : o+4]
			e := int32(row[s[r0+c-1]])
			if masked && tri.GetAt(base+c-1) {
				cc[0], cc[1], cc[2], cc[3] = 0, 0, 0, 0
			} else {
				cc[0] = cellFast(d[0], mx0, my[0], e)
				cc[1] = cellFast(d[1], mx1, my[1], e)
				cc[2] = cellFast(d[2], mx2, my[2], e)
				cc[3] = cellFast(d[3], mx3, my[3], e)
			}
			g0, g1, g2, g3 := d[0]-open, d[1]-open, d[2]-open, d[3]-open
			mx0 = maxG(g0, mx0) - ext
			mx1 = maxG(g1, mx1) - ext
			mx2 = maxG(g2, mx2) - ext
			mx3 = maxG(g3, mx3) - ext
			my[0] = maxG(g0, my[0]) - ext
			my[1] = maxG(g1, my[1]) - ext
			my[2] = maxG(g2, my[2]) - ext
			my[3] = maxG(g3, my[3]) - ext
		}
		if k := y - r0; k >= 0 && k < 4 && k < len(bots) && bots[k] != nil {
			bottom := bots[k]
			for c := k + 1; c <= n; c++ {
				bottom[c-k-1] = cur[4*c+k]
			}
		}
		prev, cur = cur, prev
	}
	sc.prev, sc.cur = prev, cur // keep the swap so reuse stays coherent
}

// cellILP is one lane's Figure-3 cell update (prologue variant with
// override handling).
func cellILP(d, mx, my, e int32, over bool) int32 {
	if over {
		return 0
	}
	return cellFast(d, mx, my, e)
}

// cellFast is the branch-light cell update of the main loop.
func cellFast(d, mx, my, e int32) int32 {
	best := d
	if mx > best {
		best = mx
	}
	if my > best {
		best = my
	}
	v := best + e
	if v < 0 {
		v = 0
	}
	return v
}

func maxG(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// negInf matches the scalar kernel's -infinity headroom.
const negInf = -(1 << 29)
