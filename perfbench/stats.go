package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// tailBeyond is the number of samples that must lie beyond the reported
// tail percentile.
const tailBeyond = 10

// tail is the highest percentile of a sample with at least tailBeyond
// samples beyond it.
type tail struct {
	Value   float64
	Pct     float64 // percentile of Value, 0-100
	N       int     // sample count
	Beyond  int     // samples strictly after Value in sorted order
	Partial bool    // fewer than tailBeyond+1 samples: Value is the maximum
}

func (t tail) String() string {
	s := fmt.Sprintf("p%.1f of n=%d, %d beyond", t.Pct, t.N, t.Beyond)
	if t.Partial {
		s += "; fewer than 11 samples, value is the maximum"
	}
	return s
}

// tailIndex returns the index in an ascending sample of length n of the
// highest percentile with at least tailBeyond samples after it. With
// n <= tailBeyond no index qualifies and the maximum's index is returned
// with partial set.
func tailIndex(n int) (idx int, partial bool) {
	if n <= tailBeyond {
		return n - 1, true
	}
	return n - 1 - tailBeyond, false
}

// tailOf computes the tail of xs (unsorted; xs is not modified).
func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	s := sorted(xs)
	i, partial := tailIndex(len(s))
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(len(s)),
		N: len(s), Beyond: len(s) - 1 - i, Partial: partial}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for an empty sample).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Parent is the index of the enclosing span
// (-1 at the root).
type span struct {
	Name       string
	Parent     int
	Start, End time.Duration
}

// tracer keeps the spans of a traced run in memory. A nil tracer records
// nothing, so untraced code paths call it unconditionally. It is safe
// for concurrent use: the serving workload records from handler
// goroutines.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index (-1 on a nil tracer).
func (tr *tracer) start(name string, parent int) int {
	if tr == nil {
		return -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Start: time.Since(tr.t0)})
	return len(tr.spans) - 1
}

// end closes span i and returns its duration.
func (tr *tracer) end(i int) time.Duration {
	if tr == nil || i < 0 {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[i].End = time.Since(tr.t0)
	return tr.spans[i].End - tr.spans[i].Start
}

// layerTime sums, per span name, the call count, the total duration and
// the self time: duration minus the part covered by child spans.
type layerTime struct {
	Name        string
	Calls       int
	Total, Self time.Duration
}

func (tr *tracer) summary() []layerTime {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	child := make([]time.Duration, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	var order []string
	for i, s := range tr.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
			order = append(order, s.Name)
		}
		lt.Calls++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - child[i]
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	return out
}
