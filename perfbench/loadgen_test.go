package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls once must raise the latency of the requests
// queued behind the stall, because the open loop charges each request
// from when it was due, and the generator must report that it ran late.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const (
		n       = 30
		every   = 10 * time.Millisecond
		stallAt = 5
		stall   = 200 * time.Millisecond
	)
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if count.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	lr := &phaseResult{arr: make([]arrival, n)}
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * every
		lr.arr[i].due = due[i]
	}
	// One worker: nothing can overtake the stalled request.
	lr.sent, lr.done = openLoop(1, due, func(int) {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})

	for i := 0; i < stallAt; i++ {
		if l := lr.latency(i); l > ms(stall)/2 {
			t.Errorf("request %d before the stall: latency %.1f ms", i, l)
		}
	}
	if l := lr.latency(stallAt); l < ms(stall) {
		t.Errorf("stalled request: latency %.1f ms, want >= %.0f", l, ms(stall))
	}
	// The next request was due 10 ms into the stall; it is charged the
	// remaining ~190 ms even though its own service time is tiny.
	if l := lr.latency(stallAt + 1); l < ms(stall-2*every) {
		t.Errorf("request behind the stall: latency %.1f ms, want >= %.0f", l, ms(stall-2*every))
	}
	if svc := ms(lr.done[stallAt+1] - lr.sent[stallAt+1]); svc > ms(stall)/2 {
		t.Errorf("request behind the stall: service time %.1f ms should be short", svc)
	}
	if late := lr.lateMax(); late < ms(stall-2*every) {
		t.Errorf("lateMax %.1f ms, want >= %.0f", late, ms(stall-2*every))
	}
	// Once the backlog drains the generator is on time again.
	if late := lr.late(n - 1); late > ms(stall)/2 {
		t.Errorf("last request still %.1f ms late", late)
	}
}

// With two workers a stall holds one of them; the other keeps sending,
// so lateness stays bounded by the stall only when both are held.
func TestOpenLoopTwoWorkersBothStalled(t *testing.T) {
	const stall = 150 * time.Millisecond
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c := count.Add(1) - 1; c == 2 || c == 3 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	const n = 12
	lr := &phaseResult{arr: make([]arrival, n)}
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * 5 * time.Millisecond
		lr.arr[i].due = due[i]
	}
	lr.sent, lr.done = openLoop(2, due, func(int) {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})
	if late := lr.lateMax(); late < ms(stall)/2 {
		t.Errorf("both workers stalled but lateMax is %.1f ms", late)
	}
	if l := lr.latency(4); l < ms(stall)/2 {
		t.Errorf("request queued behind two stalls: latency %.1f ms", l)
	}
}
