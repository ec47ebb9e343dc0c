package main

import (
	"math"
	"testing"
)

// The tail is the highest percentile with at least ten samples beyond
// it; below eleven samples no percentile qualifies and the maximum is
// reported, flagged as partial.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		idx     int
		partial bool
	}{
		{1, 0, true},
		{10, 9, true},
		{11, 0, false},
		{12, 1, false},
		{20, 9, false},
		{100, 89, false},
		{1000, 989, false},
	} {
		idx, partial := tailIndex(tc.n)
		if idx != tc.idx || partial != tc.partial {
			t.Errorf("tailIndex(%d) = %d, %t; want %d, %t", tc.n, idx, partial, tc.idx, tc.partial)
		}
		// Samples 1..n in reverse order: the tail value must have exactly
		// min(10, n-1) larger samples.
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		tl := tailOf(xs)
		beyond := 0
		for _, x := range xs {
			if x > tl.Value {
				beyond++
			}
		}
		want := tailBeyond
		if tc.partial {
			want = 0
		}
		if beyond != want || tl.Beyond != want || tl.N != tc.n {
			t.Errorf("n=%d: tail %v has %d beyond (reported %d), want %d", tc.n, tl.Value, beyond, tl.Beyond, want)
		}
		if wantPct := 100 * float64(tc.idx+1) / float64(tc.n); math.Abs(tl.Pct-wantPct) > 1e-9 {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, tl.Pct, wantPct)
		}
	}
	if tl := tailOf(nil); tl.N != 0 || tl.Value != 0 {
		t.Errorf("empty sample: %+v", tl)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// Self time is a span's duration minus the time its children cover.
func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "child", Parent: 0, Start: 10, End: 40},
		{Name: "child", Parent: 0, Start: 50, End: 70},
	}}
	got := map[string]layerTime{}
	for _, lt := range tr.summary() {
		got[lt.Name] = lt
	}
	if r := got["root"]; r.Total != 100 || r.Self != 50 || r.Calls != 1 {
		t.Errorf("root: %+v", r)
	}
	if c := got["child"]; c.Total != 50 || c.Self != 50 || c.Calls != 2 {
		t.Errorf("child: %+v", c)
	}
}
