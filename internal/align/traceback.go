package align

import (
	"fmt"

	"repro/internal/triangle"
)

// Matrix computes the full alignment matrix (Gotoh recurrence, optional
// override masking) with rows 0..len(s1) and columns 0..len(s2); row and
// column 0 are the zero boundary. It is used only for tracebacks of
// accepted top alignments — score-only paths use the linear-memory
// kernels. tri may be nil; its overrides become Sentinel32 entries of
// each row's exchange scores, so the inner loop has no mask probe. The returned matrix is arena-owned and valid
// until the next call on sc.
func (sc *Scratch) Matrix(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) [][]int32 {
	len1, len2 := len(s1), len(s2)
	if cap(sc.rows) < len1+1 {
		sc.rows = make([][]int32, len1+1)
	}
	m := sc.rows[:len1+1]
	if cap(sc.flat) < (len1+1)*(len2+1) {
		sc.flat = make([]int32, (len1+1)*(len2+1))
	}
	flat := sc.flat[:(len1+1)*(len2+1)]
	for y := range m {
		m[y] = flat[y*(len2+1) : (y+1)*(len2+1)]
		m[y][0] = 0 // zero boundary column (arena may hold stale values)
	}
	for x := range m[0] {
		m[0][x] = 0 // zero boundary row
	}
	if len1 == 0 || len2 == 0 {
		for y := range m {
			for x := range m[y] {
				m[y][x] = 0
			}
		}
		return m
	}
	maxY := growI32(&sc.maxY, len2+1)
	for i := range maxY {
		maxY[i] = negInf
	}
	ex := growI32(&sc.ex, len2)
	open, ext := p.Gap.Open, p.Gap.Ext
	for y := 1; y <= len1; y++ {
		row := p.Exch.Row(s1[y-1])
		for x, b := range s2 {
			ex[x] = int32(row[b])
		}
		if tri != nil {
			triangle.Mark(tri, maskBase(tri, r, y), ex, Sentinel32)
		}
		matrixRow(m[y-1][:len2], m[y][1:], maxY[1:], ex, open, ext)
	}
	return m
}

// matrixRow advances one full-matrix row. Entry i of cur, maxY and ex
// belongs to column i+1; prev[i] is its diagonal predecessor. A function
// of its own keeps the horizontal gap chain in a register.
func matrixRow(prev, cur, maxY, ex []int32, open, ext int32) {
	n := len(ex)
	prev, cur, maxY = prev[:n], cur[:n], maxY[:n] // one bounds check per row
	maxX := int32(negInf)
	for x, e := range ex {
		d := prev[x]
		cur[x] = max(max(d, maxX, maxY[x])+e, 0)
		g := d - open
		maxX = max(g, maxX) - ext
		maxY[x] = max(g, maxY[x]) - ext
	}
}

// Traceback reconstructs the alignment ending at bottom-row column endX
// (1-based) from a full matrix produced by Matrix (or NaiveMatrix) with
// the same parameters and mask. It returns the matched pairs in path
// order. The end cell must be positive.
//
// Predecessors are rediscovered from the stored M values: the diagonal
// first, then horizontal gaps by increasing length, then vertical gaps —
// a deterministic tie order, so equal-scoring reconstructions are stable.
// The returned Alignment's pair slice is freshly allocated (it outlives
// the call as part of a TopAlignment); only the path accumulator is
// arena-reused.
func (sc *Scratch) Traceback(p Params, m [][]int32, s1, s2 []byte, tri *triangle.Triangle, r, endX int) (Alignment, error) {
	len1 := len(s1)
	if len1 == 0 || endX < 1 || endX > len(s2) {
		return Alignment{}, fmt.Errorf("align: traceback end column %d out of range", endX)
	}
	y, x := len1, endX
	score := m[y][x]
	if score <= 0 {
		return Alignment{}, fmt.Errorf("align: traceback from non-positive cell (%d,%d)=%d", y, x, score)
	}
	open, ext := p.Gap.Open, p.Gap.Ext
	rev := sc.rev[:0]
	for {
		v := m[y][x]
		rev = append(rev, Pair{Y: y, X: x})
		var e int32
		if tri != nil && tri.GetAt(maskBase(tri, r, y)+x-1) {
			return Alignment{}, fmt.Errorf("align: traceback crossed overridden cell (%d,%d)", y, x)
		}
		e = p.Exch.Score(s1[y-1], s2[x-1])
		best := v - e
		if best == 0 {
			break // fresh local start
		}
		// diagonal predecessor
		if m[y-1][x-1] == best {
			y, x = y-1, x-1
			if y == 0 || x == 0 {
				break
			}
			if m[y][x] == 0 {
				break
			}
			continue
		}
		// horizontal gap of length k
		moved := false
		for k := 1; x-1-k >= 0; k++ {
			if m[y-1][x-1-k]-open-int32(k)*ext == best && m[y-1][x-1-k] > 0 {
				y, x = y-1, x-1-k
				moved = true
				break
			}
		}
		if !moved {
			// vertical gap of length k
			for k := 1; y-1-k >= 0; k++ {
				if m[y-1-k][x-1]-open-int32(k)*ext == best && m[y-1-k][x-1] > 0 {
					y, x = y-1-k, x-1
					moved = true
					break
				}
			}
		}
		if !moved {
			return Alignment{}, fmt.Errorf("align: no predecessor found at (%d,%d)=%d", y, x, v)
		}
	}
	sc.rev = rev // keep the grown accumulator for reuse
	// reverse into path order
	pairs := make([]Pair, len(rev))
	for i, pr := range rev {
		pairs[len(rev)-1-i] = pr
	}
	return Alignment{Score: score, Pairs: pairs}, nil
}

// BestValidEnd returns the 1-based column of the maximum entry in bottom
// among the valid ending positions, together with that score. When orig
// is non-nil (a realignment), a column is valid only if its value equals
// the original first-alignment value — the shadow-rejection rule of
// Appendix A. Rejected counts the positive cells skipped as shadows.
// If no valid positive cell exists, endX is 0 and score 0.
func BestValidEnd(bottom, orig []int32) (endX int, score int32, rejected int64) {
	for i, v := range bottom {
		if v <= 0 {
			continue
		}
		if orig != nil && orig[i] != v {
			rejected++
			continue
		}
		if v > score {
			score, endX = v, i+1
		}
	}
	return endX, score, rejected
}
