//go:build amd64

package multialign

import (
	"math"

	"repro/internal/align"
	"repro/internal/triangle"
)

// cpuid and xgetbv are implemented in avx2_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// rowAVX8 (avx2_amd64.s) advances one matrix row over n columns of the
// 8-lane interleaved Gotoh recurrence: for each column it computes
// v = clamp0(max(d, mx, maxY) + e), stores it, and updates the running
// gap maxima mx and maxY. prev points at the lane block of the column
// before the span's first, cur and maxY at the span's first column, ex
// at its exchange value (overridden columns carry align.Sentinel32). mx is the 8-lane horizontal-gap
// running maximum, carried in and out.
//
//go:noescape
func rowAVX8(prev, cur, maxY, ex *int32, n int, open, ext int32, mx *int32)

// rowAVX16Pair advances TWO matrix rows (y, y+1) of the 16-lane int16
// recurrence in one sweep over columns 1..n, left border included: row
// y's cells stay in registers and feed row y+1's diagonal, and row y+1
// is written in place over row y-1 in buffer a. a and maxY point at
// column 1's block, exY and exY1 at the rows' exchange values. Lanes of
// any cell reaching satLimit16 OR their byte mask into *sat.
// rowAVX16PairFast drops saturation tracking, for groups Int16Proven
// cleared; the Cap variants also store row y into cur (from column 1's
// block), for pairs whose row y is a captured bottom row.
//
//go:noescape
func rowAVX16Pair(a, maxY, exY, exY1 *int16, n int, open, ext int16, sat *uint32)

//go:noescape
func rowAVX16PairFast(a, maxY, exY, exY1 *int16, n int, open, ext int16)

//go:noescape
func rowAVX16PairCap(a, cur, maxY, exY, exY1 *int16, n int, open, ext int16, sat *uint32)

//go:noescape
func rowAVX16PairCapFast(a, cur, maxY, exY, exY1 *int16, n int, open, ext int16)

// borderMask16 is the pair kernels' left border as exchange sentinels:
// lane k's matrix starts at column k+1, so row c-1 (column c = 1..15)
// holds sentinel16 in lanes k >= c, where the cell is a zero boundary
// cell, and MaxInt16 elsewhere. The kernels VPMINSW each exchange value
// of those columns with it.
var borderMask16 = func() (t [15][16]int16) {
	for c := 1; c <= 15; c++ {
		for k := range t[c-1] {
			t[c-1][k] = math.MaxInt16
			if k >= c {
				t[c-1][k] = sentinel16
			}
		}
	}
	return t
}()

// hasAVX2 gates the vector tiers. Detection is pure: runtime tier
// selection (tier.go) decides what actually runs, and honors the
// REPRO_NO_AVX2 / REPRO_KERNEL_TIER environment overrides at init.
var hasAVX2 = detectAVX2()

// hasAVX512 reports AVX-512 F+BW support for the stubbed future tier.
var hasAVX512 = detectAVX512()

// detectAVX2 performs the standard three-step check: AVX + OSXSAVE in
// CPUID.1:ECX, XMM+YMM state enabled in XCR0, AVX2 in CPUID.7.0:EBX.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if c&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// detectAVX512 checks for the AVX-512 Foundation + BW extensions a
// 32-lane int16 kernel would need: opmask/zmm state enabled in XCR0
// (bits 5-7) and AVX512F (bit 16) + AVX512BW (bit 30) in CPUID.7.0:EBX.
// Diagnostic only until that tier exists.
func detectAVX512() bool {
	if !detectAVX2() {
		return false
	}
	if lo, _ := xgetbv(); lo&0xe6 != 0xe6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const fAndBW = 1<<16 | 1<<30
	return b&fAndBW == fAndBW
}

// maskedRow returns the exchange row ex (column c at ex[c-1]) of matrix
// row y of the group starting at split r0, with the row's overrides
// folded in as sentinels: a row with an overridden column is copied into
// *buf first, so the query profile stays clean. Clean rows, and every
// row when tri is nil, return ex itself. The cost is an O(n) copy plus
// O(overrides), against the O(lanes·n) cells of the row.
func maskedRow[T int16 | int32](tri *triangle.Triangle, y, r0 int, ex []T, buf *[]T, sentinel T) []T {
	if tri == nil {
		return ex
	}
	base := tri.RowOffset(y) + r0 - y
	if tri.RowEmpty(base, len(ex)) {
		return ex
	}
	out := grow(buf, len(ex))
	copy(out, ex)
	triangle.Mark(tri, base, out, sentinel)
	return out
}

// profile is a Farrar-style query profile over the suffix suf = s[r0:]:
// row(ch)[c-1] = Score(ch, suf[c-1]), built lazily for the residues the
// rows actually use, so each matrix row is one slice lookup instead of n
// exchange lookups.
type profile[T int16 | int32] struct {
	p     align.Params
	suf   []byte
	rows  []T
	built []bool
}

// newProfile sizes the profile arena for every residue code of s.
func newProfile[T int16 | int32](p align.Params, s []byte, r0 int, rows *[]T, built *[]bool) profile[T] {
	maxCode := 0
	for _, b := range s {
		maxCode = max(maxCode, int(b))
	}
	n := len(s) - r0
	pr := profile[T]{p: p, suf: s[r0:], rows: grow(rows, (maxCode+1)*n), built: grow(built, maxCode+1)}
	clear(pr.built)
	return pr
}

func (pr profile[T]) row(ch byte) []T {
	n := len(pr.suf)
	ex := pr.rows[int(ch)*n : (int(ch)+1)*n : (int(ch)+1)*n]
	if !pr.built[ch] {
		pr.built[ch] = true
		row := pr.p.Exch.Row(ch)
		for c, b := range pr.suf {
			ex[c] = T(row[b])
		}
	}
	return ex
}

// avx8 is the 8-lane AVX2 kernel body: exact int32 lanes, 8 per ymm
// register, interleaved per column as in Figure 7. Go handles the
// left-border prologue (columns 1..7, where not-yet-started lanes are
// forced to zero); the assembly row kernel sweeps the rest of the row in
// one call, overridden columns included (see sentinel16). bots as in
// ilp4.
func (sc *Scratch) avx8(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32) {
	m := len(s)
	n := m - r0 // column c is global position j = r0+c

	prev := grow(&sc.prev, 8*(n+1))
	cur := grow(&sc.cur, 8*(n+1))
	maxY := grow(&sc.maxY, 8*(n+1))
	for i := range prev {
		prev[i] = 0 // zero boundary row (arena may hold stale values)
		maxY[i] = negInf
	}
	for i := 0; i < 8; i++ {
		cur[i] = 0 // becomes the boundary column block after the swap
	}
	prof := newProfile(p, s, r0, &sc.prof, &sc.profBuilt)

	open, ext := p.Gap.Open, p.Gap.Ext
	yMax := min(r0+7, m-1)
	pro := min(7, n)
	var mx [8]int32
	for y := 1; y <= yMax; y++ {
		ex := maskedRow(tri, y, r0, prof.row(s[y-1]), &sc.mask, align.Sentinel32)
		for i := range mx {
			mx[i] = negInf
		}
		// Left-border prologue: lane k's matrix starts at column k+1, so
		// at columns 1..7 lanes k >= c are forced to zero.
		for c := 1; c <= pro; c++ {
			col8(prev, cur, maxY, &mx, c, ex[c-1], open, ext)
		}
		if n > pro {
			rowAVX8(&prev[8*pro], &cur[8*(pro+1)], &maxY[8*(pro+1)], &ex[pro], n-pro, open, ext, &mx[0])
		}
		// capture the bottom row of the lane whose matrix ends here
		if k := y - r0; k >= 0 && k < 8 && k < len(bots) && bots[k] != nil {
			bottom := bots[k]
			for c := k + 1; c <= n; c++ {
				bottom[c-k-1] = cur[8*c+k]
			}
		}
		prev, cur = cur, prev
	}
	sc.prev, sc.cur = prev, cur
}

// avx16 is the 16-lane int16 kernel body: 16 saturating int16 lanes per
// ymm register, interleaved per column exactly as avx8 (same 32-byte
// column stride, twice the matrices). Every row runs in the pair
// kernel, two rows per call over the whole row, left border and masked
// rows included (both are exchange sentinels, see borderMask16 and
// sentinel16); an odd last row pairs with an all-sentinel row, whose
// cells are zero. Pairs whose row y is a captured bottom row run the
// variant that stores row y. It reports whether any lane's cell value
// reached satLimit16, in which case the bottom rows are unreliable and
// the caller must re-run the group through the exact int32 kernel. When
// proven is true (Int16Proven), the no-tracking kernels run and the
// return value is always false.
//
// Unflagged results are bit-identical to the int32 kernels: all values
// stay below satLimit16, so the saturating adds and subtracts behave
// exactly (the negInf16 initials decay toward -32768 under saturating
// subtraction, but like the scalar kernel's -2^29 they always lose the
// maxima to real values — see tier.go for the bounds).
func (sc *Scratch) avx16(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32, proven bool) bool {
	m := len(s)
	n := m - r0 // column c is global position j = r0+c

	a := grow(&sc.prev16, 16*(n+1))  // row y-1, then row y+1 of each pair
	cur := grow(&sc.cur16, 16*(n+1)) // row y of capture pairs
	maxY := grow(&sc.maxY16, 16*(n+1))
	for i := range a {
		a[i] = 0 // zero boundary row (arena may hold stale values)
		maxY[i] = negInf16
	}
	prof := newProfile(p, s, r0, &sc.prof16, &sc.profBuilt)

	open, ext := int16(p.Gap.Open), int16(p.Gap.Ext)
	yMax := min(r0+15, m-1)
	// capture copies the bottom row of the lane whose matrix ends at row
	// y out of buf, which holds that row (rows past the last live lane,
	// the padded one included, capture nothing).
	capture := func(y int, buf []int16) {
		if k := y - r0; k >= 0 && k < 16 && k < len(bots) && bots[k] != nil {
			bottom := bots[k]
			for c := k + 1; c <= n; c++ {
				bottom[c-k-1] = int32(buf[16*c+k])
			}
		}
	}
	var sat uint32
	for y := 1; y <= yMax; y += 2 {
		// Rows y and y+1 may share a residue, hence a profile row, so
		// each masks into its own buffer.
		ex := maskedRow(tri, y, r0, prof.row(s[y-1]), &sc.mask16[0], sentinel16)
		var ex1 []int16
		if y+1 <= yMax {
			ex1 = maskedRow(tri, y+1, r0, prof.row(s[y]), &sc.mask16[1], sentinel16)
		} else {
			ex1 = grow(&sc.mask16[1], n)
			for c := range ex1 {
				ex1[c] = sentinel16
			}
		}
		capY := y >= r0
		switch {
		case proven && capY:
			rowAVX16PairCapFast(&a[16], &cur[16], &maxY[16], &ex[0], &ex1[0], n, open, ext)
		case proven:
			rowAVX16PairFast(&a[16], &maxY[16], &ex[0], &ex1[0], n, open, ext)
		case capY:
			rowAVX16PairCap(&a[16], &cur[16], &maxY[16], &ex[0], &ex1[0], n, open, ext, &sat)
		default:
			rowAVX16Pair(&a[16], &maxY[16], &ex[0], &ex1[0], n, open, ext, &sat)
		}
		if sat != 0 {
			// Saturated rows will be discarded wholesale; stop early so
			// the int32 re-run pays for the group only once.
			return true
		}
		if capY {
			capture(y, cur)
		}
		capture(y+1, a)
	}
	return false
}

// col8 is the Go fallback for left-border prologue column c of the
// 8-lane recurrence: lanes k >= c have not started and are forced to
// zero, while every lane's gap maxima advance.
func col8(prev, cur, maxY []int32, mx *[8]int32, c int, e, open, ext int32) {
	o := 8 * c
	d := prev[o-8 : o : o]
	my := maxY[o : o+8 : o+8]
	cc := cur[o : o+8 : o+8]
	for k := 0; k < 8; k++ {
		var v int32
		if k < c {
			v = cellFast(d[k], mx[k], my[k], e)
		}
		cc[k] = v
		g := d[k] - open
		mx[k] = maxG(g, mx[k]) - ext
		my[k] = maxG(g, my[k]) - ext
	}
}
