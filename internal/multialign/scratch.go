package multialign

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/triangle"
)

// Scratch is the group-kernel analogue of align.Scratch: a reusable
// buffer arena that makes every group score kernel allocation-free once
// warm. Buffers grow monotonically to the largest group seen and are
// reset, never reallocated, on reuse.
//
// Ownership rules match align.Scratch (DESIGN.md section 10): a Scratch
// belongs to one goroutine at a time, and the *Group returned by its
// methods — including every bottom row — points into the arena and is
// valid only until the next call on the same Scratch. Callers that
// retain a row must copy it first.
//
// The zero value is ready to use.
type Scratch struct {
	prev, cur, maxY []int32 // interleaved int32 lane rows (ILP and AVX2 kernels)

	edgeM, edgeMx [][4]int32 // striped ILP kernel's inter-stripe carries

	prof      []int32 // query profile: per-character exchange rows (AVX2 kernel)
	profBuilt []bool
	mask      []int32 // masked copy of one exchange row, overrides as sentinels

	prev16, cur16, maxY16 []int16    // interleaved int16 lane rows (16-lane AVX2 kernel)
	prof16                []int16    // query profile at int16 width
	mask16                [2][]int16 // masked exchange rows of a row pair (y, y+1), or row y and the all-sentinel pad

	arena []int32   // bottom-row storage
	heads [][]int32 // lane headers over arena
	g     Group     // reusable result
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// grow resizes *buf to n entries, reusing capacity when possible.
// Contents are unspecified; callers reset what they read.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// newGroup prepares the reusable Group result: one arena-backed bottom
// row per in-range lane (split r0+k <= len-1), nil beyond the sequence
// end. Lane k's row has length m-r0-k, matching what the kernels fill.
func (sc *Scratch) newGroup(m, r0, lanes int) *Group {
	total := 0
	for k := 0; k < lanes; k++ {
		if r := r0 + k; r <= m-1 {
			total += m - r
		}
	}
	arena := grow(&sc.arena, total)
	if cap(sc.heads) < lanes {
		sc.heads = make([][]int32, lanes)
	}
	heads := sc.heads[:lanes]
	off := 0
	for k := 0; k < lanes; k++ {
		if r := r0 + k; r <= m-1 {
			heads[k] = arena[off : off+(m-r) : off+(m-r)]
			off += m - r
		} else {
			heads[k] = nil
		}
	}
	sc.g = Group{R0: r0, Bottoms: heads}
	return &sc.g
}

// ScoreGroupILPStriped computes the four neighbouring matrices of
// splits r0..r0+3 with exact int32 lanes, each in its own variable
// rather than packed into one word (the scalar tier's kernel; see ilp4),
// with the paper's cache-aware vertical striping: the four interleaved
// matrices are computed in column stripes of the given width, with
// per-row edge state (the previous stripe's last column and
// horizontal-gap running maxima) carried between stripes. A width at
// least the column count len(s)-r0 runs the flat kernel unstriped.
// width <= 0 selects DefaultGroupStripe.
//
// This is the hook the Table 2 tool and the stripe-boundary tests use
// to pick a width; the engine reaches the kernel through ScoreGroupAuto.
func (sc *Scratch) ScoreGroupILPStriped(p align.Params, s []byte, r0 int, tri *triangle.Triangle, width int) *Group {
	g := sc.newGroup(len(s), r0, 4)
	sc.ilp4Striped(p, s, r0, tri, width, g.Bottoms)
	return g
}

// ScoreGroupAuto computes bottom rows for `lanes` (4, 8 or 16)
// neighbouring splits starting at r0 against override triangle tri
// (which may be nil); s is the full sequence and split r aligns s[:r]
// with s[r:]. It is the production group kernel and dispatches on the
// effective kernel tier (TierFor): full 16-lane groups whose scoring
// model fits 16-bit arithmetic run the saturating int16 kernel — with an
// exact int32 re-run if the sticky saturation flag fires — 8-lane blocks
// run the exact int32 AVX2 kernel, and everything else falls back to
// exact ILP lanes in blocks of four. All paths produce bit-identical
// bottom rows; the chosen path is reported in Group.Tier.
func (sc *Scratch) ScoreGroupAuto(p align.Params, s []byte, r0, lanes int, tri *triangle.Triangle) (*Group, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := len(s)
	if r0 < 1 || r0 > m-1 {
		return nil, fmt.Errorf("multialign: group start split %d out of range for length %d", r0, m)
	}
	if lanes != 4 && lanes != 8 && lanes != 16 {
		return nil, fmt.Errorf("multialign: unsupported lane count %d (want 4, 8, or 16)", lanes)
	}
	g := sc.newGroup(m, r0, lanes)
	tier := TierFor(p, m, lanes)
	if tier == TierInt16x16 {
		proven := Int16Proven(p, m, r0, lanes)
		if !sc.avx16(p, s, r0, tri, g.Bottoms, proven) {
			g.Tier = TierInt16x16
			return g, nil
		}
		// Saturation detected: the int16 rows are unreliable. Re-run the
		// whole group through the exact int32 kernel below — the int16
		// tier implies AVX2, so avx8 is always the rerun engine.
		g.Rerun = true
		tier = TierInt32x8
	}
	if tier == TierInt32x8 {
		for block := 0; block < lanes; block += 8 {
			b0 := r0 + block
			if b0 > m-1 {
				break
			}
			sc.avx8(p, s, b0, tri, g.Bottoms[block:])
		}
		g.Tier = TierInt32x8
		return g, nil
	}
	for block := 0; block < lanes; block += 4 {
		b0 := r0 + block
		if b0 > m-1 {
			break
		}
		sc.ilp4Striped(p, s, b0, tri, 0, g.Bottoms[block:])
	}
	g.Tier = TierScalar
	return g, nil
}
