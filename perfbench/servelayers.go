package main

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/serve"
)

// serveLayers is the per-layer view of one traced serving phase.
type serveLayers struct {
	hitMs, missMs, queueMs, missCPUMs, hopMs []float64
	canonUs, keyUs                           []float64
	attempted, shed                          int
	shared, flightShared                     int
	hits, misses, evictions                  int64
	lateMax                                  float64
}

// cacheStats sums the shards' cumulative cache counters.
func (e *serveEnv) cacheStats() (hits, misses, evictions int64) {
	for _, s := range e.shards {
		h, m, ev := s.Cache().Stats()
		hits, misses, evictions = hits+h, misses+m, evictions+ev
	}
	return
}

// tracedPhase runs one traced phase of length d and derives the
// serving layers' metrics from it: replies split by cache outcome,
// X-Resource-* headers, shard handler time, cache counters, generator
// lateness, and the request-path functions timed on the same bodies.
func (e *serveEnv) tracedPhase(r *run, seed uint64, d time.Duration) (*serveLayers, error) {
	h0, m0, ev0 := e.cacheStats()
	e.tracing.Store(true)
	ph, err := e.runPhase(r, seed, d)
	e.tracing.Store(false)
	if err != nil {
		return nil, err
	}
	h1, m1, ev1 := e.cacheStats()
	sl := &serveLayers{attempted: len(ph.arr), hits: h1 - h0, misses: m1 - m0, evictions: ev1 - ev0}
	e.mu.Lock()
	inShard := e.inShard
	e.inShard = map[string]time.Duration{}
	e.mu.Unlock()
	sl.lateMax = ph.lateMax()
	for i, rep := range ph.replies {
		if rep.status == http.StatusTooManyRequests || rep.status == http.StatusServiceUnavailable {
			sl.shed++
		}
		if rep.flight == "shared" {
			sl.flightShared++
		}
		if !ph.ok[i] {
			continue
		}
		client := ms(ph.done[i] - ph.sent[i])
		switch rep.cache {
		case "hit":
			sl.hitMs = append(sl.hitMs, client)
		case "miss":
			sl.missMs = append(sl.missMs, client)
			sl.missCPUMs = append(sl.missCPUMs, float64(rep.cpuNs)/1e6)
		case "shared":
			sl.shared++
		}
		if rep.queueNs > 0 {
			sl.queueMs = append(sl.queueMs, float64(rep.queueNs)/1e6)
		}
		if in, ok := inShard[ph.ids[i]]; ok {
			sl.hopMs = append(sl.hopMs, client-ms(in))
		}
	}
	// The request path's pure functions, timed on the phase's own bodies.
	sp := e.tr.start("serve.Request.Canonicalise", -1)
	reqs := make([]serve.Request, len(ph.arr))
	for i := range ph.arr {
		if err := json.Unmarshal(requestBody(ph.ids[i], ph.arr[i].p), &reqs[i]); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := reqs[i].Canonicalise(0); err != nil {
			return nil, err
		}
		sl.canonUs = append(sl.canonUs, float64(time.Since(t0))/1e3)
	}
	e.tr.end(sp)
	sp = e.tr.start("serve.CacheKey", -1)
	for i := range reqs {
		t0 := time.Now()
		serve.CacheKey(&reqs[i])
		sl.keyUs = append(sl.keyUs, float64(time.Since(t0))/1e3)
	}
	e.tr.end(sp)
	return sl, nil
}

func (sl *serveLayers) report(r *run) {
	if sl == nil {
		sl = &serveLayers{}
	}
	r.set("serve.hit_ms_p50", median(sl.hitMs), "ms")
	r.set("serve.miss_ms_p50", median(sl.missMs), "ms")
	r.set("serve.queue_wait_ms_p50", median(sl.queueMs), "ms")
	r.set("serve.miss_cpu_ms", median(sl.missCPUMs), "ms")
	r.set("serve.canonicalise_us", median(sl.canonUs), "us")
	r.set("serve.cachekey_us", median(sl.keyUs), "us")
	r.set("serve.shed_frac", ratio(float64(sl.shed), float64(sl.attempted)), "ratio")
	r.set("cache.hit_ratio", ratio(float64(sl.hits), float64(sl.hits+sl.misses)), "ratio")
	r.set("cache.shared", float64(sl.shared), "count")
	r.set("cache.evictions", float64(sl.evictions), "count")
	r.set("shard.hop_ms_p50", median(sl.hopMs), "ms")
	r.set("shard.flight_shared", float64(sl.flightShared), "count")
	r.set("loadgen.late_ms_max", sl.lateMax, "ms")
}

// serveProbeSeconds is the length of the serving probe of a traced run.
const serveProbeSeconds = 3

// serveProbe reads the serving layers on a fresh stack: a short
// open-loop phase on the serving inputs of the run's seed.
func serveProbe(r *run, tr *tracer) (*serveLayers, error) {
	e, err := startServe(r.Seed, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := e.attachRefs(r); err != nil {
		return nil, err
	}
	return e.tracedPhase(r, r.Seed, serveProbeSeconds*time.Second)
}
