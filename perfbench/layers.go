package main

import (
	"runtime"
	"time"

	"repro"
	"repro/internal/align"
	"repro/internal/multialign"
	"repro/internal/obs/attrib"
	"repro/internal/parallel"
	"repro/internal/repeats"
	"repro/internal/scoring"
	"repro/internal/seedindex"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

// layers accumulates per-layer counts and busy times over a traced run.
// Every field is filled only by code that calls the layer's public
// function itself, inside a benchmark span.
type layers struct {
	// topalign / parallel engine runs of the traced loop
	engineRuns     int
	engineNanos    int64
	cells          int64
	alignments     int64
	realignments   int64
	reductionSum   float64
	mallocs        uint64
	tierAligns     map[string]int64
	delineateNanos int64
	delineateCalls int
	parSeqNanos    int64 // topalign.Find wall, same inputs as parNanos
	parNanos       int64 // parallel.Find wall
	parSeqCells    int64
	parCells       int64
	parCPUNanos    int64
	parWorkers     int
	kernelCells    int64 // raw multialign.ScoreGroupAuto sweep
	kernelNanos    int64
	prefilterRuns  int
	indexNanos     int64
	chainNanos     int64
	candidates     int64
	windowCells    int64
	sequenceCells  int64
	extendNanos    int64
	extendCells    int64
	winKernelCells int64 // raw align.ScoreWindow over candidate windows
	winKernelNanos int64
	// measureNanos is time spent inside a traced analysis only to read a
	// layer (stages re-run outside seedindex.Find, the raw window
	// kernel); the traced latency excludes it.
	measureNanos    int64
	serve           *serveLayers
	untracedLatency []float64
	tracedLatency   []float64
}

func newLayers() *layers { return &layers{tierAligns: map[string]int64{}} }

var (
	blosum62, _ = scoring.ByName("BLOSUM62")
	protParams  = align.Params{Exch: blosum62, Gap: scoring.DefaultProteinGap}
)

// analyzeTraced is repro.Analyze decomposed into its layers for a
// protein under o, with a benchmark span around each public call. It
// assembles the same report fields Analyze does, so its digest must
// equal the reference.
func analyzeTraced(tr *tracer, lay *layers, p *protein, o repro.Options) (*repro.Report, error) {
	root := tr.start("repro.Analyze/decomposed", -1)
	defer tr.end(root)
	ctr := &stats.Counters{}
	cfg := topalign.Config{Params: protParams, NumTops: o.NumTops, GroupLanes: o.Lanes, Counters: ctr}
	var (
		res *topalign.Result
		err error
	)
	if o.Preset != "" {
		res, err = prefilterTraced(tr, root, lay, p.Codes, cfg)
	} else {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		name := "topalign.Find"
		if o.Workers > 1 {
			name = "parallel.Find"
		}
		sp := tr.start(name, root)
		if o.Workers > 1 {
			res, err = parallel.Find(p.Codes, cfg, parallel.Config{Workers: o.Workers})
		} else {
			res, err = topalign.Find(p.Codes, cfg)
		}
		d := tr.end(sp)
		runtime.ReadMemStats(&m1)
		if err == nil {
			lay.engineRuns++
			lay.engineNanos += int64(d)
			lay.mallocs += m1.Mallocs - m0.Mallocs
			lay.cells += res.Stats.Cells
			lay.alignments += res.Stats.Alignments
			lay.realignments += res.Stats.Realignments
			lay.reductionSum += res.Stats.RealignmentReduction(len(p.Codes)-1, len(res.Tops))
			for k, v := range res.Stats.KernelTiers() {
				lay.tierAligns[k] += v
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return delineateTraced(tr, root, lay, p.Codes, res.Tops)
}

// delineateTraced runs repeat delineation and consensus derivation and
// assembles the report the way repro.Analyze does.
func delineateTraced(tr *tracer, root int, lay *layers, codes []byte, tops []topalign.TopAlignment) (*repro.Report, error) {
	sp := tr.start("repeats.Delineate", root)
	fams, err := repeats.Delineate(len(codes), tops, repeats.Options{})
	lay.delineateNanos += int64(tr.end(sp))
	lay.delineateCalls++
	if err != nil {
		return nil, err
	}
	rep := &repro.Report{SeqLen: len(codes)}
	for _, t := range tops {
		rt := repro.TopAlignment{Index: t.Index, Split: t.Split, Score: int(t.Score),
			Pairs: make([]repro.Pair, len(t.Pairs))}
		for i, pr := range t.Pairs {
			rt.Pairs[i] = repro.Pair{I: pr.I, J: pr.J}
		}
		rep.Tops = append(rep.Tops, rt)
	}
	sp = tr.start("repeats.DeriveConsensus", root)
	for _, f := range fams {
		rf := repro.RepeatFamily{Support: f.Support, Score: f.Score, UnitLen: f.UnitLen(),
			Copies: make([]repro.RepeatCopy, len(f.Copies))}
		for i, c := range f.Copies {
			rf.Copies[i] = repro.RepeatCopy{Start: c.Start, End: c.End}
		}
		if cons, err := repeats.DeriveConsensus(codes, f); err == nil {
			rf.Consensus = seq.Protein.Decode(cons.Codes)
			rf.Conservation = cons.MeanConservation()
		}
		rep.Families = append(rep.Families, rf)
	}
	tr.end(sp)
	return rep, nil
}

// winSample is the stride over candidate windows for the raw
// ScoreWindow reading: every 8th window keeps the reading's cost near
// an eighth of the extension it is compared with.
const winSample = 8

// prefilterTraced runs the balanced seed-filter-extend pipeline with a
// span around each stage, then times the raw windowed kernel over a
// sample of the same candidate windows.
func prefilterTraced(tr *tracer, root int, lay *layers, s []byte, cfg topalign.Config) (*topalign.Result, error) {
	pcfg, err := seedindex.PresetConfig(seedindex.PresetBalanced, seq.PrimaryLetters(seq.Protein))
	if err != nil {
		return nil, err
	}
	sp := tr.start("seedindex.BuildIndex", root)
	x, err := seedindex.BuildIndex(s, pcfg)
	dIndex := tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("seedindex.Chain", root)
	ch := seedindex.Chain(x, pcfg)
	dChain := tr.end(sp)
	sp = tr.start("seedindex.Candidates", root)
	cands := seedindex.Candidates(ch, pcfg, len(s), cfg.Params.Exch.MaxScore())
	dCand := tr.end(sp)
	// Find repeats the index, chain and candidate stages internally, so
	// the extension is its wall time minus the three stages above.
	sp = tr.start("seedindex.Find", root)
	res, st, err := seedindex.Find(s, pcfg, cfg)
	dFind := tr.end(sp)
	if err != nil {
		return nil, err
	}
	lay.prefilterRuns++
	lay.indexNanos += int64(dIndex)
	lay.chainNanos += int64(dChain + dCand)
	lay.candidates += int64(st.Candidates)
	lay.windowCells += st.WindowCells
	lay.sequenceCells += st.SequenceCells
	if ext := dFind - dIndex - dChain - dCand; ext > 0 {
		lay.extendNanos += int64(ext)
	}
	lay.extendCells += res.Stats.Cells

	sc := align.NewScratch()
	sp = tr.start("align.Scratch.ScoreWindow", root)
	t0 := time.Now()
	for i := 0; i < len(cands); i += winSample {
		sc.ScoreWindow(cfg.Params, s, cands[i].Rect, nil)
		lay.winKernelCells += cands[i].Rect.Cells()
	}
	lay.winKernelNanos += int64(time.Since(t0))
	lay.measureNanos += int64(dIndex+dChain+dCand) + int64(tr.end(sp))
	return res, nil
}

// kernelProbe times the raw 16-lane group kernel, one goroutine, over
// the engine's first sweep of s: every split in groups of 16 against an
// empty override triangle.
func kernelProbe(tr *tracer, lay *layers, s []byte) error {
	sc := multialign.NewScratch()
	m := len(s)
	sp := tr.start("multialign.ScoreGroupAuto", -1)
	t0 := time.Now()
	for r0 := 1; r0 <= m-1; r0 += 16 {
		if _, err := sc.ScoreGroupAuto(protParams, s, r0, 16, nil); err != nil {
			return err
		}
		for r := r0; r < r0+16 && r <= m-1; r++ {
			lay.kernelCells += align.Cells(r, m-r)
		}
	}
	lay.kernelNanos += int64(time.Since(t0))
	tr.end(sp)
	return nil
}

// probeWorkers is the parallel probe's worker count, the exact-parallel
// workload's.
const probeWorkers = 2

// parallelProbe runs the sequential engine and the strict shared-memory
// scheduler on the same input, for speedup, wasted cells and CPU use.
func parallelProbe(tr *tracer, lay *layers, s []byte, o repro.Options) error {
	cfg := func() topalign.Config {
		return topalign.Config{Params: protParams, NumTops: o.NumTops, GroupLanes: o.Lanes,
			Counters: &stats.Counters{}}
	}
	sp := tr.start("topalign.Find", -1)
	seqRes, err := topalign.Find(s, cfg())
	dSeq := tr.end(sp)
	if err != nil {
		return err
	}
	cpu0 := attrib.ProcessCPU()
	sp = tr.start("parallel.Find", -1)
	parRes, err := parallel.Find(s, cfg(), parallel.Config{Workers: probeWorkers})
	dPar := tr.end(sp)
	cpu := attrib.ProcessCPU() - cpu0
	if err != nil {
		return err
	}
	lay.parSeqNanos += int64(dSeq)
	lay.parNanos += int64(dPar)
	lay.parSeqCells += seqRes.Stats.Cells
	lay.parCells += parRes.Stats.Cells
	lay.parCPUNanos += cpu
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report converts the accumulated layer data into the per-layer metrics.
func (lay *layers) report(r *run) {
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	kernelRate := ratio(float64(lay.kernelCells), secs(lay.kernelNanos))
	engineRate := ratio(float64(lay.cells), secs(lay.engineNanos))
	runs := float64(lay.engineRuns)
	r.set("multialign.cells_per_s", kernelRate, "cells/s")
	var tierTotal int64
	for k, v := range lay.tierAligns {
		if k != "rerun" {
			tierTotal += v
		}
	}
	r.set("multialign.int16_frac", ratio(float64(lay.tierAligns["int16x16"]), float64(tierTotal)), "ratio")
	r.set("multialign.rerun_frac", ratio(float64(lay.tierAligns["rerun"]), float64(tierTotal)), "ratio")

	r.set("topalign.cells", ratio(float64(lay.cells), runs), "count")
	r.set("topalign.alignments", ratio(float64(lay.alignments), runs), "count")
	r.set("topalign.realignments", ratio(float64(lay.realignments), runs), "count")
	r.set("topalign.realign_reduction", ratio(lay.reductionSum, runs), "ratio")
	r.set("topalign.cells_per_s", engineRate, "cells/s")
	r.set("topalign.kernel_frac", ratio(engineRate, kernelRate), "ratio")
	overhead := 0.0
	if kernelRate > 0 && runs > 0 {
		overhead = (secs(lay.engineNanos) - float64(lay.cells)/kernelRate) / runs
	}
	r.set("topalign.overhead_s", overhead, "s")
	r.set("topalign.allocs_per_align", ratio(float64(lay.mallocs), float64(lay.alignments)), "count")

	r.set("parallel.speedup", ratio(float64(lay.parSeqNanos), float64(lay.parNanos)), "ratio")
	r.set("parallel.extra_cells_frac", ratio(float64(lay.parCells-lay.parSeqCells), float64(lay.parSeqCells)), "ratio")
	r.set("parallel.cpu_util", ratio(float64(lay.parCPUNanos), float64(lay.parNanos)*probeWorkers), "ratio")

	winRate := ratio(float64(lay.winKernelCells), secs(lay.winKernelNanos))
	pruns := float64(lay.prefilterRuns)
	r.set("align.window_cells_per_s", winRate, "cells/s")
	r.set("seedindex.index_ms", ratio(float64(lay.indexNanos)/1e6, pruns), "ms")
	r.set("seedindex.chain_ms", ratio(float64(lay.chainNanos)/1e6, pruns), "ms")
	r.set("seedindex.candidates", ratio(float64(lay.candidates), pruns), "count")
	r.set("seedindex.window_frac", ratio(float64(lay.windowCells), float64(lay.sequenceCells)), "ratio")
	r.set("seedindex.extend_s", ratio(secs(lay.extendNanos), pruns), "s")
	r.set("seedindex.extend_kernel_frac",
		ratio(ratio(float64(lay.extendCells), secs(lay.extendNanos)), winRate), "ratio")

	r.set("repeats.delineate_ms", ratio(float64(lay.delineateNanos)/1e6, float64(lay.delineateCalls)), "ms")

	lay.serve.report(r)

	u, t := median(lay.untracedLatency), median(lay.tracedLatency)
	r.set("trace.overhead_ms", t-u, "ms")
	r.set("trace.overhead_frac", ratio(t-u, u), "ratio")
	r.note("tracing overhead: latency_p50_ms untraced %.4f (n=%d) traced %.4f (n=%d)",
		u, len(lay.untracedLatency), t, len(lay.tracedLatency))
}
