// Package oldalgo models the pre-1993-style sequential top-alignment
// computation the paper uses as its baseline ("the old algorithm", with
// O(n^4) run time versus the new algorithm's O(n^3)).
//
// The original Repro implementation is not publicly available; the paper
// reports only its complexity. This package therefore reconstructs the
// natural unoptimised method, omitting each of the paper's contributions
// (see DESIGN.md's substitution table):
//
//   - no best-first task queue: after every accepted top alignment, all
//     m-1 splits are realigned from scratch;
//   - no cached original bottom rows: shadow rejection is done by the
//     expensive "double alignment" the paper describes (align each pair
//     both with and without the override triangle and compare);
//   - in the Naive variant, no Gotoh running maxima: every cell scans
//     its row and column for gap candidates (Equation 1 verbatim), an
//     extra factor of n.
//
// Both variants produce exactly the same top alignments as the new
// algorithm (package topalign) — the tests assert it — only slower,
// which is what Table 1 measures.
package oldalgo

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/stats"
	"repro/internal/topalign"
	"repro/internal/triangle"
)

// Kernel selects the per-cell recurrence of the baseline.
type Kernel int

const (
	// KernelNaive uses Equation-1 gap scans: O(n) per cell, O(n^4) per
	// realignment round. This is the paper's old-algorithm cost model.
	KernelNaive Kernel = iota
	// KernelGotoh uses the Figure-3 running maxima: O(1) per cell. The
	// round structure is still exhaustive, so the total is O(tops*n^3);
	// this variant isolates the contribution of the new algorithm's
	// queue heuristic and row caching from the kernel improvement.
	KernelGotoh
)

func (k Kernel) String() string {
	switch k {
	case KernelNaive:
		return "naive"
	case KernelGotoh:
		return "gotoh"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Config controls a baseline run.
type Config struct {
	Params   align.Params
	NumTops  int
	MinScore int32
	Kernel   Kernel
	Counters *stats.Counters
}

// Find computes top alignments with the old algorithm. The results are
// identical to topalign.Find; only the amount of work differs.
func Find(s []byte, cfg Config) (*topalign.Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumTops < 1 {
		return nil, fmt.Errorf("oldalgo: NumTops %d must be at least 1", cfg.NumTops)
	}
	if cfg.MinScore <= 0 {
		cfg.MinScore = 1
	}
	m := len(s)
	if m < 2 {
		return nil, fmt.Errorf("oldalgo: sequence length %d too short", m)
	}

	tri := triangle.New(m)
	var tops []topalign.TopAlignment
	// Two arenas, because each split needs its unmasked and its masked
	// row at once.
	var origSc, rowSc align.Scratch

	for len(tops) < cfg.NumTops {
		bestScore := int32(0)
		bestR := 0
		for r := 1; r <= m-1; r++ {
			s1, s2 := s[:r], s[r:]
			// double alignment: the unmasked row is recomputed every
			// round (the old algorithm caches nothing)
			orig := score(cfg, &origSc, s1, s2, nil, r)
			cfg.Counters.AddAlignment(align.Cells(r, m-r), len(tops) > 0)
			var row []int32
			if tri.Count() == 0 {
				row = orig
			} else {
				row = score(cfg, &rowSc, s1, s2, tri, r)
				cfg.Counters.AddAlignment(align.Cells(r, m-r), true)
			}
			_, sc, rejected := align.BestValidEnd(row, orig)
			cfg.Counters.AddShadowEnds(rejected)
			if sc > bestScore {
				bestScore, bestR = sc, r
			}
		}
		if bestScore < cfg.MinScore {
			break
		}
		top, err := traceback(cfg, &origSc, &rowSc, s, bestR, tri, len(tops)+1)
		if err != nil {
			return nil, err
		}
		tops = append(tops, top)
	}
	return &topalign.Result{
		SeqLen: m,
		Tops:   tops,
		Stats:  cfg.Counters.Snapshot(),
	}, nil
}

// score dispatches to the configured kernel; the Gotoh kernel's row is
// owned by sc.
func score(cfg Config, sc *align.Scratch, s1, s2 []byte, tri *triangle.Triangle, r int) []int32 {
	if cfg.Kernel == KernelNaive {
		return align.ScoreNaive(cfg.Params, s1, s2, tri, r)
	}
	return sc.ScoreMasked(cfg.Params, s1, s2, tri, r)
}

// traceback accepts split r's best valid alignment as top number index
// and marks its pairs in the triangle. The unmasked row comes from
// origSc, the matrix from mtxSc.
func traceback(cfg Config, origSc, mtxSc *align.Scratch, s []byte, r int, tri *triangle.Triangle, index int) (topalign.TopAlignment, error) {
	s1, s2 := s[:r], s[r:]
	orig := score(cfg, origSc, s1, s2, nil, r)
	var mtx [][]int32
	if cfg.Kernel == KernelNaive {
		mtx = align.NaiveMatrix(cfg.Params, s1, s2, tri, r)
	} else {
		mtx = mtxSc.Matrix(cfg.Params, s1, s2, tri, r)
	}
	cfg.Counters.AddTraceback(align.Cells(len(s1), len(s2)))
	endX, sc, _ := align.BestValidEnd(mtx[r][1:], orig)
	if endX == 0 || sc <= 0 {
		return topalign.TopAlignment{}, fmt.Errorf("oldalgo: split %d has no valid alignment", r)
	}
	a, err := mtxSc.Traceback(cfg.Params, mtx, s1, s2, tri, r, endX)
	if err != nil {
		return topalign.TopAlignment{}, fmt.Errorf("oldalgo: split %d: %w", r, err)
	}
	top := topalign.TopAlignment{Index: index, Split: r, Score: a.Score,
		Pairs: make([]topalign.Pair, len(a.Pairs))}
	for i, p := range a.Pairs {
		gp := topalign.Pair{I: p.Y, J: r + p.X}
		top.Pairs[i] = gp
		tri.Set(gp.I, gp.J)
	}
	return top, nil
}
