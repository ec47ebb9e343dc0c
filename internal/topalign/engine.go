package topalign

import (
	"fmt"
	"time"

	"repro/internal/align"
	"repro/internal/multialign"
	"repro/internal/obs"
	"repro/internal/triangle"
)

// Scratch bundles the kernel arenas one worker needs for the full task
// cycle: the scalar score kernel, group kernels, and the traceback
// matrix. Schedulers own one Scratch per worker goroutine; the
// sequential drivers own one for the whole run. See align.Scratch for
// the ownership rules.
type Scratch struct {
	A align.Scratch
	G multialign.Scratch
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// Engine holds the shared state of a top-alignment computation — the
// sequence, the override triangle, the original-bottom-row store, and
// the accepted top alignments — and provides the single-task operations
// the sequential and parallel drivers are built from.
//
// Engine methods are not self-synchronising. AlignScore and
// AlignGroupScore are pure with respect to the triangle snapshot passed
// in (the row store is internally locked), so schedulers may run them
// concurrently as long as each concurrent caller brings its own
// Scratch. AcceptTop mutates the engine and must be serialised.
type Engine struct {
	s    []byte
	cfg  Config
	tri  *triangle.Triangle
	orig *triangle.RowStore
	tops []TopAlignment
}

// NewEngine validates the configuration and prepares the state for
// sequence s (length >= 2).
func NewEngine(s []byte, cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(s) < 2 {
		return nil, fmt.Errorf("topalign: sequence length %d too short", len(s))
	}
	return &Engine{
		s:    s,
		cfg:  cfg,
		tri:  triangle.New(len(s)),
		orig: triangle.NewRowStore(len(s)),
	}, nil
}

// Len returns the sequence length m.
func (e *Engine) Len() int { return len(e.s) }

// NumSplits returns the number of split tasks, m-1.
func (e *Engine) NumSplits() int { return len(e.s) - 1 }

// Config returns the normalised configuration.
func (e *Engine) Config() Config { return e.cfg }

// NumTopsFound returns the number of accepted top alignments so far.
func (e *Engine) NumTopsFound() int { return len(e.tops) }

// Tops returns the accepted top alignments in acceptance order. The
// caller must not modify the returned slice.
func (e *Engine) Tops() []TopAlignment { return e.tops }

// Triangle returns the current override triangle. It is mutated by
// AcceptTop; concurrent readers must use TriangleSnapshot instead.
func (e *Engine) Triangle() *triangle.Triangle { return e.tri }

// TriangleSnapshot returns an immutable copy of the current triangle for
// concurrent realignment.
func (e *Engine) TriangleSnapshot() *triangle.Triangle { return e.tri.Clone() }

// OrigRows exposes the original-bottom-row store (the distributed master
// serves replicas from it).
func (e *Engine) OrigRows() *triangle.RowStore { return e.orig }

// AlignScore aligns split r score-only against the given triangle and
// returns the split's score — the maximum over valid bottom-row endings
// after shadow rejection — and that ending's 1-based column (0 when
// there is none), which AcceptTop takes as its traceback width. On a
// task's first alignment the triangle is ignored (first alignments
// always see the empty triangle — every task is aligned once before the
// first acceptance, see Find) and the bottom row is recorded as the
// split's original row. All working memory comes from sc; the hot path
// performs no allocation.
func (e *Engine) AlignScore(r int, tri *triangle.Triangle, sc *Scratch) (score int32, endX int) {
	s1, s2 := e.s[:r], e.s[r:]
	orig, have := e.orig.Get(r)
	if !have {
		t0 := time.Now()
		row := sc.A.Score(e.cfg.Params, s1, s2)
		e.cfg.Counters.ObserveAlignLatency(time.Since(t0))
		e.orig.Put(r, row) // Put copies; row is scratch-owned
		e.cfg.Counters.AddAlignment(align.Cells(len(s1), len(s2)), false)
		e.cfg.Counters.AddTierAlignments(int(multialign.TierScalar), 1, false)
		endX, score, _ = align.BestValidEnd(row, nil)
		return score, endX
	}
	t0 := time.Now()
	row := sc.A.ScoreMasked(e.cfg.Params, s1, s2, tri, r)
	e.cfg.Counters.ObserveAlignLatency(time.Since(t0))
	e.cfg.Counters.AddAlignment(align.Cells(len(s1), len(s2)), true)
	e.cfg.Counters.AddTierAlignments(int(multialign.TierScalar), 1, false)
	endX, score, rejected := align.BestValidEnd(row, orig)
	e.cfg.Counters.AddShadowEnds(rejected)
	if rejected > 0 {
		e.cfg.Trace.Record(obs.EvShadowReject, -1, int64(r), rejected)
	}
	return score, endX
}

// AlignGroupScore aligns the fixed group of GroupLanes neighbouring
// splits starting at r0 against the given triangle and returns one score
// per member (member i is split r0+i; members beyond the last split get
// score 0). First-time members have their original rows recorded.
// Groups are computed with the fastest exact group kernel (multialign),
// falling back to the scalar kernel only on an internal error.
//
// Each member's best valid end column goes into ends, as AlignScore
// returns it (0 for members without one). The results are written into
// scores and ends when they have capacity (callers reuse a task's
// slices); otherwise fresh slices are returned. The group's wall time is
// attributed to its live members so the latency histogram stays
// per-alignment.
func (e *Engine) AlignGroupScore(r0 int, tri *triangle.Triangle, sc *Scratch, scores []int32, ends []int) ([]int32, []int) {
	lanes := e.cfg.GroupLanes
	m := len(e.s)
	if cap(scores) < lanes {
		scores = make([]int32, lanes)
	}
	if cap(ends) < lanes {
		ends = make([]int, lanes)
	}
	scores, ends = scores[:lanes], ends[:lanes]
	clear(scores)
	clear(ends)

	// First alignments must see the empty triangle. Within a group all
	// members share alignment history (they are always aligned
	// together), so checking the first member suffices.
	first := false
	if _, have := e.orig.Get(r0); !have {
		first = true
		tri = nil
	}
	members := m - r0 // live lanes: splits r0..min(r0+lanes-1, m-1)
	if members > lanes {
		members = lanes
	}

	t0 := time.Now()
	g, err := sc.G.ScoreGroupAuto(e.cfg.Params, e.s, r0, lanes, tri)
	if err != nil {
		// scalar fallback, member by member (observes its own latency)
		for i := 0; i < lanes; i++ {
			r := r0 + i
			if r > m-1 {
				break
			}
			scores[i], ends[i] = e.AlignScore(r, tri, sc)
		}
		return scores, ends
	}
	e.cfg.Counters.ObserveAlignLatencyPer(time.Since(t0), members)
	e.cfg.Counters.AddTierAlignments(int(g.Tier), int64(members), g.Rerun)
	for i := 0; i < lanes; i++ {
		r := r0 + i
		if r > m-1 {
			break
		}
		row := g.Bottoms[i]
		if first {
			e.orig.Put(r, row) // Put copies; row is scratch-owned
			e.cfg.Counters.AddAlignment(align.Cells(r, m-r), false)
			ends[i], scores[i], _ = align.BestValidEnd(row, nil)
			continue
		}
		orig, _ := e.orig.Get(r)
		e.cfg.Counters.AddAlignment(align.Cells(r, m-r), true)
		var rejected int64
		ends[i], scores[i], rejected = align.BestValidEnd(row, orig)
		e.cfg.Counters.AddShadowEnds(rejected)
		if rejected > 0 {
			e.cfg.Trace.Record(obs.EvShadowReject, -1, int64(r), rejected)
		}
	}
	return scores, ends
}

// AcceptTop accepts split r's current alignment as the next top
// alignment: it recomputes the matrix against the current triangle,
// tracebacks from the best valid ending, marks the path's residue pairs
// in the triangle, and records the result. The returned alignment's
// pairs are in global coordinates.
//
// endX is the best valid end column that an alignment of split r
// against the current triangle reported (0 if unknown); tasks are
// accepted only when their scores are exact for the current triangle,
// so their recorded ends are. The traceback never reads right of the
// end, so the matrix stops at column endX. If the end found on that
// truncated bottom row is not endX, the hint was wrong and the
// full-width matrix is computed, as it is without a hint.
func (e *Engine) AcceptTop(r, endX int, sc *Scratch) (TopAlignment, error) {
	sp := e.cfg.Spans.Start(e.cfg.SpanParent, "engine.accept")
	sp.SetRank(e.cfg.SpanRank)
	sp.SetArg(int64(r))
	defer sp.End()
	s1, s2 := e.s[:r], e.s[r:]
	orig, have := e.orig.Get(r)
	if !have {
		return TopAlignment{}, fmt.Errorf("topalign: accepting split %d that was never aligned", r)
	}
	hint := endX
	if hint < 1 || hint > len(s2) {
		hint = len(s2)
	}
	mtx := sc.A.Matrix(e.cfg.Params, s1, s2[:hint], e.tri, r)
	cells := align.Cells(len(s1), hint)
	endX, score, _ := align.BestValidEnd(mtx[r][1:], orig)
	if hint < len(s2) && endX != hint {
		mtx = sc.A.Matrix(e.cfg.Params, s1, s2, e.tri, r)
		cells += align.Cells(len(s1), len(s2))
		endX, score, _ = align.BestValidEnd(mtx[r][1:], orig)
	}
	e.cfg.Counters.AddTraceback(cells)
	if endX == 0 || score <= 0 {
		return TopAlignment{}, fmt.Errorf("topalign: split %d has no valid alignment to accept", r)
	}
	a, err := sc.A.Traceback(e.cfg.Params, mtx, s1, s2, e.tri, r, endX)
	if err != nil {
		return TopAlignment{}, fmt.Errorf("topalign: split %d: %w", r, err)
	}
	top := TopAlignment{
		Index: len(e.tops) + 1,
		Split: r,
		Score: a.Score,
		Pairs: make([]Pair, len(a.Pairs)),
	}
	for i, p := range a.Pairs {
		gp := Pair{I: p.Y, J: r + p.X}
		top.Pairs[i] = gp
		e.tri.Set(gp.I, gp.J)
	}
	e.tops = append(e.tops, top)
	e.cfg.Trace.Record(obs.EvAccept, -1, int64(r), int64(a.Score))
	return top, nil
}
