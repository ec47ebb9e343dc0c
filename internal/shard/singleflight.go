package shard

import (
	"net/http"
	"sync"
)

// upstreamResult is one shard response, buffered so every singleflight
// waiter (and the retry loop) can replay it.
type upstreamResult struct {
	status int
	header http.Header // response headers worth forwarding
	body   []byte
	shard  string // which shard answered
	err    error  // transport-level failure after all retries
}

// flightGroup is the distributed-singleflight table: concurrent
// requests for the same content-addressed key share one upstream call.
// This is sound for exactly the reason the shards' own caches share
// entries — the key covers every report-affecting parameter, and
// strict mode makes backends bit-identical — so collapsing N identical
// in-flight requests into one upstream computation changes fleet load,
// never any response body.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done    chan struct{}
	res     *upstreamResult
	waiters int // callers that joined instead of leading; guarded by flightGroup.mu
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// do runs fn once per key per flight: the first caller (the leader)
// executes it while later callers block on the same result. shared
// reports whether this call rode along instead of leading. Error
// results are delivered to every waiter but not cached — the next
// request for the key starts a fresh flight.
func (g *flightGroup) do(key string, fn func() *upstreamResult) (res *upstreamResult, shared bool) {
	g.mu.Lock()
	if fl, ok := g.m[key]; ok {
		fl.waiters++
		g.mu.Unlock()
		<-fl.done
		return fl.res, true
	}
	fl := &flight{done: make(chan struct{})}
	g.m[key] = fl
	g.mu.Unlock()

	fl.res = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(fl.done)
	return fl.res, false
}
