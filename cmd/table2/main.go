// Command table2 regenerates Table 2 of the paper: maximum alignment
// times for the conventional kernel versus the SIMD-style group kernels
// ("SSE" computes 4 matrices at once, "SSE2" 8; this reproduction's
// lane engine is SWAR on uint64 words — see DESIGN.md).
//
// The paper's column "3.0 / 4" reads "three seconds to align four
// sequence pairs"; the table here prints the same shape plus the derived
// speed improvement (time for W conventional alignments / group time).
// It also reports the cache-aware striping effect of Section 5.1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/align"
	"repro/internal/multialign"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/swar"
)

func main() {
	var (
		length = flag.Int("length", 3000, "titin-like sequence length (paper: 34350)")
		reps   = flag.Int("reps", 3, "timing repetitions (best is reported)")
		seed   = flag.Uint64("seed", 1, "generator seed")
	)
	flag.Parse()

	if err := run(os.Stdout, *length, *reps, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "table2:", err)
		os.Exit(1)
	}
}

// run times every kernel of the table on a titin-like protein of the
// given length and prints the table to w.
func run(w io.Writer, length, reps int, seed uint64) error {
	titin := seq.SyntheticTitin(length, seed)
	s := titin.Codes
	m := len(s)
	r := m / 2 // the largest matrix, as in the paper's 17175x17175
	params := align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	var asc align.Scratch
	var gsc multialign.Scratch

	fmt.Fprintf(w, "Table 2: maximum alignment times, split %d of a %d-residue titin-like protein\n\n", r, m)

	// conventional: one scalar matrix
	conv := best(reps, func() {
		asc.Score(params, s[:r], s[r:])
	})
	cells := float64(r) * float64(m-r)
	fmt.Fprintf(w, "%-22s %10.3fs / 1 matrix   (%.0fM cells/s)\n",
		"conventional", conv.Seconds(), cells/conv.Seconds()/1e6)

	// ILP group kernel (the scalar tier's kernel: 4 independent int32
	// lanes sharing lookups and loop control, Figure 7 layout); a stripe
	// as wide as the sequence runs it unstriped
	r0 := r - 2
	ilp := best(reps, func() {
		gsc.ScoreGroupILPStriped(params, s, r0, nil, m)
	})
	fmt.Fprintf(w, "%-22s %10.3fs / 4 matrices (speed improvement %.2fx)\n",
		"ILP-4 (interleaved)", ilp.Seconds(), conv.Seconds()*4/ilp.Seconds())

	ilpStriped := best(reps, func() {
		gsc.ScoreGroupILPStriped(params, s, r0, nil, 0)
	})
	fmt.Fprintf(w, "%-22s %10.3fs / 4 matrices (speed improvement %.2fx; %.2fx from striping)\n",
		"ILP-4 striped", ilpStriped.Seconds(),
		conv.Seconds()*4/ilpStriped.Seconds(), ilp.Seconds()/ilpStriped.Seconds())

	// SWAR lane kernels: centre the group on the largest split
	for _, lanes := range []int{4, 8} {
		r0 := r - lanes/2
		var err error
		dur := best(reps, func() {
			var sat bool
			if _, sat, err = swar.ScoreGroup(params, s, r0, lanes, nil); err == nil && sat {
				err = fmt.Errorf("lane saturation at length %d; lower -length", m)
			}
		})
		if err != nil {
			return err
		}
		improvement := conv.Seconds() * float64(lanes) / dur.Seconds()
		name := fmt.Sprintf("SWAR-%d (paper: SSE", lanes)
		if lanes == 8 {
			name = fmt.Sprintf("SWAR-%d (paper: SSE2", lanes)
		}
		fmt.Fprintf(w, "%-22s %10.3fs / %d matrices (speed improvement %.2fx; paper: %s)\n",
			name+")", dur.Seconds(), lanes, improvement,
			map[int]string{4: "6.9x on P3, 6.0x on P4", 8: "9.8x"}[lanes])
	}

	// cache-aware striping (Section 5.1): striped vs row-wise scalar
	fmt.Fprintln(w)
	striped := best(reps, func() {
		asc.ScoreStriped(params, s[:r], s[r:], nil, r, 0)
	})
	fmt.Fprintf(w, "%-22s %10.3fs / 1 matrix   (%.2fx vs row-wise; paper: ~1.16x scalar, up to 6.5x SIMD)\n",
		"striped scalar", striped.Seconds(), conv.Seconds()/striped.Seconds())
	return nil
}

// best runs f reps times and returns the fastest wall time.
func best(reps int, f func()) time.Duration {
	bestD := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < bestD {
			bestD = d
		}
	}
	return bestD
}
