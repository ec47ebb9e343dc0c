package topalign

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/triangle"
)

// Find computes cfg.NumTops nonoverlapping top alignments of s using the
// paper's sequential algorithm (Figure 5). It returns fewer alignments
// if no remaining candidate reaches cfg.MinScore.
func Find(s []byte, cfg Config) (*Result, error) {
	e, err := NewEngine(s, cfg)
	if err != nil {
		return nil, err
	}
	if err := Run(e); err != nil {
		return nil, err
	}
	return &Result{
		SeqLen: e.Len(),
		Tops:   e.Tops(),
		Stats:  e.cfg.Counters.Snapshot(),
	}, nil
}

// Run drives an engine to completion sequentially. It is separated from
// Find so that callers (and tests) can inspect engine state afterwards.
func Run(e *Engine) error {
	sc := NewScratch()
	q := InitialQueue(e)
	cfg := e.Config()
	for e.NumTopsFound() < cfg.NumTops && q.Len() > 0 {
		t := q.Pop()
		if t.Score != Infinity && t.Score < cfg.MinScore {
			// The best possible remaining score is below threshold:
			// no further top alignment is worth accepting.
			return nil
		}
		if t.AlignedWith == e.NumTopsFound() {
			// The task's score is exact under the current triangle and
			// it is the queue's maximum: accept it (lines 12-14 of
			// Figure 5).
			if _, err := Accept(e, t, sc); err != nil {
				return err
			}
		} else {
			// Stale: realign against the current triangle (lines 16-17).
			Realign(e, t, e.Triangle(), e.NumTopsFound(), sc)
		}
		q.Push(t)
	}
	return nil
}

// InitialQueue builds the initial task queue for an engine: one task per
// split in scalar mode, one per fixed neighbour group in group mode, all
// with infinite score and never aligned (lines 2-7 of Figure 5).
func InitialQueue(e *Engine) *TaskQueue {
	q := NewTaskQueue()
	lanes := e.Config().GroupLanes
	for r := 1; r <= e.NumSplits(); r += lanes {
		q.Push(&Task{R: r, Score: Infinity, AlignedWith: -1})
		e.Config().Trace.Record(obs.EvEnqueue, -1, int64(r), 0)
	}
	return q
}

// Realign (re)aligns a task against the triangle snapshot tri, which
// corresponds to topNum accepted top alignments, and updates the task's
// score and AlignedWith stamp. The new score is exact for that triangle
// and remains a valid upper bound for any later (larger) triangle.
// Concurrent schedulers pass an immutable snapshot and a per-worker
// Scratch. The task's member-score slice is reused across realignments,
// so a warm task realigns without allocation.
func Realign(e *Engine, t *Task, tri *triangle.Triangle, topNum int, sc *Scratch) {
	if e.Config().GroupLanes > 1 {
		t.MemberScores, t.MemberEnds = e.AlignGroupScore(t.R, tri, sc, t.MemberScores, t.MemberEnds)
		t.Score = maxScore(t.MemberScores)
	} else {
		var end int
		t.Score, end = e.AlignScore(t.R, tri, sc)
		t.MemberEnds = append(t.MemberEnds[:0], end)
	}
	t.AlignedWith = topNum
	e.Config().Trace.Record(obs.EvRealign, -1, int64(t.R), int64(t.Score))
}

// Accept accepts the task's best member as the next top alignment,
// using sc for the traceback matrix, narrowed to the member's recorded
// end column when the task has one.
func Accept(e *Engine, t *Task, sc *Scratch) (TopAlignment, error) {
	r, best := t.R, 0
	if e.Config().GroupLanes > 1 {
		if len(t.MemberScores) == 0 {
			return TopAlignment{}, fmt.Errorf("topalign: accepting group %d with no member scores", t.R)
		}
		for i, s := range t.MemberScores {
			if s > t.MemberScores[best] {
				best = i
			}
		}
		r = t.R + best
	}
	endX := 0
	if best < len(t.MemberEnds) {
		endX = t.MemberEnds[best]
	}
	return e.AcceptTop(r, endX, sc)
}

func maxScore(scores []int32) int32 {
	best := int32(0)
	for _, s := range scores {
		if s > best {
			best = s
		}
	}
	return best
}
