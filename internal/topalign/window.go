package topalign

import (
	"fmt"
	"time"

	"repro/internal/align"
	"repro/internal/obs"
	"repro/internal/triangle"
)

// Window is a candidate region produced by the seed-filter-extend
// prefilter (internal/seedindex). Alignment is confined to Rect; Bound
// is an admissible upper bound on any alignment score inside the window
// (see DESIGN.md section 13), used as the task's initial queue score so
// that the best-first driver prunes soundly: a task is only accepted
// after an exact (re)alignment, and its score never increases.
type Window struct {
	// Rect is the window in global pair coordinates (Rect.Y1 < Rect.X0).
	Rect align.Rect
	// Bound is an admissible upper bound on the best alignment score in
	// the window: Bound >= true score, always.
	Bound int32

	// orig is the window's original (unmasked) bottom row, recorded on
	// first alignment and used for shadow rejection on realignments —
	// the windowed analogue of the engine's RowStore.
	orig []int32
}

// Aligned reports whether the window has had its first (unmasked)
// alignment, i.e. whether its original bottom row has been recorded.
func (w *Window) Aligned() bool { return w.orig != nil }

// AlignWindowScore aligns window w score-only against the given
// triangle and returns the window's score: the maximum over valid
// bottom-row endings after shadow rejection. On the window's first
// alignment the triangle is ignored (first alignments always see the
// empty triangle, exactly like AlignScore) and the bottom row is
// recorded as the window's original row.
func (e *Engine) AlignWindowScore(w *Window, tri *triangle.Triangle, sc *Scratch) int32 {
	if w.orig == nil {
		t0 := time.Now()
		row := sc.A.ScoreWindow(e.cfg.Params, e.s, w.Rect, nil)
		e.cfg.Counters.ObserveAlignLatency(time.Since(t0))
		w.orig = make([]int32, len(row))
		copy(w.orig, row)
		e.cfg.Counters.AddAlignment(w.Rect.Cells(), false)
		_, score, _ := align.BestValidEnd(row, nil)
		return score
	}
	t0 := time.Now()
	row := sc.A.ScoreWindow(e.cfg.Params, e.s, w.Rect, tri)
	e.cfg.Counters.ObserveAlignLatency(time.Since(t0))
	e.cfg.Counters.AddAlignment(w.Rect.Cells(), true)
	_, score, rejected := align.BestValidEnd(row, w.orig)
	e.cfg.Counters.AddShadowEnds(rejected)
	if rejected > 0 {
		e.cfg.Trace.Record(obs.EvShadowReject, -1, int64(w.Rect.Y1), rejected)
	}
	return score
}

// RealignWindow (re)aligns a windowed task against the triangle snapshot
// tri (corresponding to topNum accepted tops) and updates its score and
// stamp. A window's first alignment is unmasked — exact only for the
// empty triangle — so it is stamped AlignedWith = 0 regardless of
// topNum, forcing a masked realignment before acceptance whenever tops
// already exist. Later realignments are exact for tri and stamp topNum.
func RealignWindow(e *Engine, t *Task, tri *triangle.Triangle, topNum int, sc *Scratch) {
	first := !t.Win.Aligned()
	t.Score = e.AlignWindowScore(t.Win, tri, sc)
	if first {
		t.AlignedWith = 0
	} else {
		t.AlignedWith = topNum
	}
	e.Config().Trace.Record(obs.EvRealign, -1, int64(t.R), int64(t.Score))
}

// AcceptWindow accepts a windowed task's current alignment as the next
// top alignment: it recomputes the full windowed matrix against the
// current triangle, tracebacks from the best valid ending, marks the
// path's residue pairs in the triangle, and records the result. Pairs
// are mapped from window-local to global coordinates; Split is the
// window's bottom row Y1, the global prefix position the alignment ends
// at — the same split the full engine would have found it under.
func AcceptWindow(e *Engine, t *Task, sc *Scratch) (TopAlignment, error) {
	w := t.Win
	sp := e.cfg.Spans.Start(e.cfg.SpanParent, "engine.accept")
	sp.SetRank(e.cfg.SpanRank)
	sp.SetArg(int64(w.Rect.Y1))
	defer sp.End()
	if w.orig == nil {
		return TopAlignment{}, fmt.Errorf("topalign: accepting window %+v that was never aligned", w.Rect)
	}
	mtx := sc.A.MatrixWindow(e.cfg.Params, e.s, w.Rect, e.tri)
	e.cfg.Counters.AddTraceback(w.Rect.Cells())
	endX, score, _ := align.BestValidEnd(mtx[w.Rect.H()][1:], w.orig)
	if endX == 0 || score <= 0 {
		return TopAlignment{}, fmt.Errorf("topalign: window %+v has no valid alignment to accept", w.Rect)
	}
	a, err := sc.A.TracebackWindow(e.cfg.Params, mtx, e.s, w.Rect, e.tri, endX)
	if err != nil {
		return TopAlignment{}, fmt.Errorf("topalign: window %+v: %w", w.Rect, err)
	}
	top := TopAlignment{
		Index: len(e.tops) + 1,
		Split: w.Rect.Y1,
		Score: a.Score,
		Pairs: make([]Pair, len(a.Pairs)),
	}
	for i, p := range a.Pairs {
		gp := Pair{I: w.Rect.Y0 - 1 + p.Y, J: w.Rect.X0 - 1 + p.X}
		top.Pairs[i] = gp
		e.tri.Set(gp.I, gp.J)
	}
	e.tops = append(e.tops, top)
	e.cfg.Trace.Record(obs.EvAccept, -1, int64(w.Rect.Y1), int64(a.Score))
	return top, nil
}

// RunWindows drives an engine over a set of windowed candidate tasks to
// completion: the windowed analogue of Run. Tasks enter the queue at
// their admissible bound; the loop terminates when NumTops alignments
// are accepted or the best remaining upper bound drops below MinScore.
func RunWindows(e *Engine, tasks []*Task) error {
	sc := NewScratch()
	q := NewTaskQueue()
	cfg := e.Config()
	for _, t := range tasks {
		if t.Win == nil {
			return fmt.Errorf("topalign: RunWindows given non-windowed task r=%d", t.R)
		}
		q.Push(t)
		cfg.Trace.Record(obs.EvEnqueue, -1, int64(t.R), int64(t.Score))
	}
	for e.NumTopsFound() < cfg.NumTops && q.Len() > 0 {
		t := q.Pop()
		if t.Score != Infinity && t.Score < cfg.MinScore {
			// Best remaining upper bound is below threshold: done.
			return nil
		}
		if t.Win.Aligned() && t.AlignedWith == e.NumTopsFound() {
			if _, err := AcceptWindow(e, t, sc); err != nil {
				return err
			}
		} else {
			RealignWindow(e, t, e.Triangle(), e.NumTopsFound(), sc)
		}
		q.Push(t)
	}
	return nil
}
