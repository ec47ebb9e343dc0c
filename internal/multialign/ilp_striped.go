package multialign

import (
	"repro/internal/align"
	"repro/internal/triangle"
)

// DefaultGroupStripe is the column width of the striped group kernel:
// three interleaved arrays of 4 int32 lanes per column must fit in a
// third of a 32 KiB L1 data cache each, per Section 4.1 of the paper.
const DefaultGroupStripe = 512

// ilp4Striped is the striped 4-lane kernel body; bots as in ilp4.
func (sc *Scratch) ilp4Striped(p align.Params, s []byte, r0 int, tri *triangle.Triangle, width int, bots [][]int32) {
	if width <= 0 {
		width = DefaultGroupStripe
	}
	m := len(s)
	n := m - r0
	if n <= width {
		sc.ilp4(p, s, r0, tri, bots)
		return
	}

	yMax := r0 + 3
	if yMax > m-1 {
		yMax = m - 1
	}

	open, ext := p.Gap.Open, p.Gap.Ext

	// Per-row carries between stripes, one entry per lane:
	// edgeM[y] is M[y][c0-1], edgeMx[y] the horizontal running maxima
	// after column c0-1 of row y.
	edgeM := grow(&sc.edgeM, yMax+1)
	edgeMx := grow(&sc.edgeMx, yMax+1)
	for y := range edgeM {
		edgeM[y] = [4]int32{}
		edgeMx[y] = [4]int32{negInf, negInf, negInf, negInf}
	}

	prev := grow(&sc.prev, 4*(width+1))
	cur := grow(&sc.cur, 4*(width+1))
	maxY := grow(&sc.maxY, 4*(width+1))

	for c0 := 1; c0 <= n; c0 += width {
		c1 := c0 + width - 1
		if c1 > n {
			c1 = n
		}
		w := c1 - c0 + 1
		for i := 0; i <= 4*w+3; i++ {
			prev[i] = 0
			maxY[i] = negInf
		}
		for y := 1; y <= yMax; y++ {
			row := p.Exch.Row(s[y-1])
			mx := edgeMx[y]
			mx0, mx1, mx2, mx3 := mx[0], mx[1], mx[2], mx[3]
			em := edgeM[y-1]
			prev[0], prev[1], prev[2], prev[3] = em[0], em[1], em[2], em[3]
			base := 0
			masked := false
			if tri != nil {
				base = tri.RowOffset(y) + r0 - y + (c0 - 1)
				masked = !tri.RowEmpty(base, w)
			}
			for i := 1; i <= w; i++ {
				c := c0 + i - 1
				o := 4 * i
				d := prev[o-4 : o : o]
				my := maxY[o : o+4 : o+4]
				cc := cur[o : o+4 : o+4]
				e := int32(row[s[r0+c-1]])
				if masked && tri.GetAt(base+i-1) {
					cc[0], cc[1], cc[2], cc[3] = 0, 0, 0, 0
				} else {
					cc[0] = cellFast(d[0], mx0, my[0], e)
					cc[1] = cellFast(d[1], mx1, my[1], e)
					cc[2] = cellFast(d[2], mx2, my[2], e)
					cc[3] = cellFast(d[3], mx3, my[3], e)
					// left-border correction (first stripe only reaches
					// columns <= 3)
					if c <= 3 {
						if c <= 1 {
							cc[1] = 0
						}
						if c <= 2 {
							cc[2] = 0
						}
						cc[3] = 0
					}
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
			// carry the stripe's right edge to the next stripe
			ow := 4 * w
			edgeM[y-1] = [4]int32{prev[ow], prev[ow+1], prev[ow+2], prev[ow+3]}
			if y == yMax {
				edgeM[y] = [4]int32{cur[ow], cur[ow+1], cur[ow+2], cur[ow+3]}
			}
			edgeMx[y] = [4]int32{mx0, mx1, mx2, mx3}
			// capture this stripe's slice of lane k's bottom row
			if k := y - r0; k >= 0 && k < 4 && k < len(bots) && bots[k] != nil {
				for c := maxI(c0, k+1); c <= c1; c++ {
					bots[k][c-k-1] = cur[4*(c-c0+1)+k]
				}
			}
			prev, cur = cur, prev
		}
	}
	sc.prev, sc.cur = prev, cur
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
