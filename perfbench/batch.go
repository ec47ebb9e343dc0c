package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
)

// batch is a closed-loop workload: one client analyses the pool's
// proteins back to back, cycling through the pool.
type batch struct {
	fam  family
	pool int
	opt  repro.Options
	// passSeconds is about how long one pass over the pool takes on the
	// commit that defined the benchmark. The timed phase runs whole
	// passes, as many as fit the requested seconds at that speed (at
	// least one), and finishes them however long they take: every run
	// of a given length measures each protein equally often, so runs
	// differ by noise and not by which proteins fitted (per-protein cost
	// varies by 10-15%).
	passSeconds float64
}

// ops is the number of analyses of a timed phase of the given seconds.
func (b batch) ops(seconds float64) int {
	return b.pool * max(1, int(math.Round(seconds/b.passSeconds)))
}

var (
	exactTitinSpec = batch{fam: famExact, pool: famExact.Universe, passSeconds: 11.5,
		opt: repro.Options{NumTops: 15, Lanes: 16, Workers: 1}}
	exactParallelSpec = batch{fam: famExact, pool: famExact.Universe, passSeconds: 7,
		opt: repro.Options{NumTops: 15, Lanes: 16, Workers: 2}}
)

func exactTitin(r *run) error    { return exactTitinSpec.run(r) }
func exactParallel(r *run) error { return exactParallelSpec.run(r) }

type batchEnv struct{ pool []*protein }

func (batchEnv) close() {}

// setup generates the pool and runs one warm-up analysis, so lazy
// first-call set-up (scratch arenas, tier detection) is paid here.
func (b batch) setup(seed uint64) (batchEnv, error) {
	pool := b.fam.generate(b.fam.pick(seed, b.pool))
	if _, err := repro.Analyze("warm", pool[0].Residues, b.opt); err != nil {
		return batchEnv{}, err
	}
	return batchEnv{pool: pool}, nil
}

// loop runs n analyses (with n = 0, as many as fit in d), starting at
// pool index 0, and returns the latency of each in ms. With tr set,
// each analysis is decomposed into its layers (analyzeTraced);
// otherwise it is one repro.Analyze call. Each analysis is timed
// together with a collection of the heap right after it, so the cost of
// its garbage is charged to it and the run's peak RSS does not depend
// on where collections happened to fall.
func (b batch) loop(r *run, env batchEnv, d time.Duration, n int, tr *tracer, lay *layers) (lat []float64) {
	deadline := time.Now().Add(d)
	for i := 0; n > 0 && i < n || n == 0 && time.Now().Before(deadline); i++ {
		p := env.pool[i%len(env.pool)]
		var (
			rep *repro.Report
			err error
		)
		t0 := time.Now()
		if tr != nil {
			m0 := lay.measureNanos
			rep, err = analyzeTraced(tr, lay, p, b.opt)
			t0 = t0.Add(time.Duration(lay.measureNanos - m0))
		} else {
			rep, err = repro.Analyze("bench", p.Residues, b.opt)
		}
		runtime.GC()
		dt := time.Since(t0)
		r.Attempted++
		if err != nil {
			r.Failed++
			r.note("analysis %d failed: %v", i, err)
			continue
		}
		lat = append(lat, ms(dt))
		r.check(rep, p.Want)
	}
	return lat
}

// check compares a report with its reference digest and counts a
// mismatch as a failure. Under -mutate-one the first report checked has
// one pair changed first: the negative control.
func (r *run) check(rep *repro.Report, want string) bool {
	if r.MutateOne {
		r.MutateOne = false
		mutateOnePair(rep)
	}
	if digest(rep) == want {
		return true
	}
	r.Failed++
	r.Mismatched++
	return false
}

// mutateOnePair shifts the first matched pair of the first top alignment.
func mutateOnePair(rep *repro.Report) {
	if len(rep.Tops) > 0 && len(rep.Tops[0].Pairs) > 0 {
		rep.Tops[0].Pairs[0].J++
	}
}

func (b batch) run(r *run) error {
	env, err := setUp(r, 3, func() (batchEnv, error) { return b.setup(r.Seed) })
	if err != nil {
		return err
	}
	// Reference digests are attached after set-up and before timing.
	computed, err := b.fam.attachRefs(env.pool)
	if err != nil {
		return err
	}
	r.note("pool %s x%d, references computed %d, stored %d", b.fam.Name, len(env.pool), computed, len(env.pool)-computed)
	d := time.Duration(r.Seconds * float64(time.Second))
	if r.Traced {
		return b.traced(r, env, d)
	}
	resetPeakRSS()
	lat := b.loop(r, env, d, b.ops(r.Seconds), nil, nil)
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.e2eBatch(lat)
	return nil
}

// e2eBatch sets the end-to-end metrics of a closed-loop run. Throughput
// is over the summed analysis time (each analysis with its collection),
// so the benchmark's own output check between analyses is not charged
// to the system.
func (r *run) e2eBatch(lat []float64) {
	busy := 0.0
	for _, l := range lat {
		busy += l / 1e3
	}
	tl := tailOf(lat)
	r.set("latency_p50_ms", median(lat), "ms")
	r.set("latency_tail_ms", tl.Value, "ms")
	r.set("ops_per_s", ratio(float64(len(lat)), busy), "1/s")
	r.set("success_frac", 1-ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
	r.note("latency_tail_ms is %s", tl)
	r.note("error_frac %.6g ratio (%d failed of %d attempted, %d mismatched)",
		ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted, r.Mismatched)
}

// traced measures half the time untraced and half decomposed into
// layers, then runs bounded probes for the layers the workload itself
// does not reach, each on the workload's own inputs.
func (b batch) traced(r *run, env batchEnv, d time.Duration) error {
	lay := newLayers()
	tr := newTracer()
	sp := tr.start("repro.Analyze", -1)
	lay.untracedLatency = b.loop(r, env, d/2, 0, nil, nil)
	tr.end(sp)
	lay.tracedLatency = b.loop(r, env, d/2, 0, tr, lay)
	probes := env.pool
	if len(probes) > 2 {
		probes = probes[:2]
	}
	for _, p := range probes {
		if err := kernelProbe(tr, lay, p.Codes); err != nil {
			return err
		}
		if err := parallelProbe(tr, lay, p.Codes, b.opt); err != nil {
			return err
		}
	}
	if err := longProbe(r, tr, lay); err != nil {
		return err
	}
	var err error
	if lay.serve, err = serveProbe(r, tr); err != nil {
		return err
	}
	lay.report(r)
	printSpans(r, tr)
	return nil
}

// longOpt is the long-input probe's configuration: the balanced
// seed-filter-extend preset, which bypasses the exact engine and its
// group kernels.
var longOpt = repro.Options{NumTops: 15, Preset: "balanced", Workers: 2}

// longProbe reads the long-input layers (seedindex, the windowed align
// kernels) on one long protein of the run's seed, decomposed like the
// traced loop's analyses, and checks its report like any other.
func longProbe(r *run, tr *tracer, lay *layers) error {
	ps := famLong.generate(famLong.pick(r.Seed, 1))
	if _, err := famLong.attachRefs(ps); err != nil {
		return err
	}
	r.Attempted++
	rep, err := analyzeTraced(tr, lay, ps[0], longOpt)
	if err != nil {
		r.Failed++
		return fmt.Errorf("long-input probe: %w", err)
	}
	r.check(rep, ps[0].Want)
	return nil
}

// printSpans prints each span name's call count, total and self time.
func printSpans(r *run, tr *tracer) {
	for _, lt := range tr.summary() {
		r.note("span %-34s calls %6d total %10.3f ms self %10.3f ms",
			lt.Name, lt.Calls, ms(lt.Total), ms(lt.Self))
	}
}
