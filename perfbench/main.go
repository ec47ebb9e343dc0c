// Command perfbench is the repository benchmark. It runs one named
// workload against the library (and, in a traced run, a probe of the
// serving stack), checks every output against a reference digest, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as the last line of
// standard output:
//
//	{"correct": true, "attempted": 60, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload exact-titin --seed 1 --seconds 20 --trace 0
//
// LAYERS.md lists the workloads, the metrics, the layer to end-to-end
// map and the pitfalls of each number.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/multialign"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run holds one invocation's settings and collects its output.
type run struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Traced   bool
	// MutateOne is the negative control: the first measured report gets
	// one top-alignment pair changed before it is checked, so the run
	// must count one failure.
	MutateOne bool
	// SetupOnly makes the run time one set-up, print it and stop: the
	// parent's set-up samples in fresh processes.
	SetupOnly bool

	Attempted, Failed, Mismatched int64
	Metrics                       map[string]metric
	out                           *bufio.Writer
}

func (r *run) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// note prints one human-readable line ahead of the result line.
func (r *run) note(format string, a ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", a...)
}

// workload runs one measured workload into r. Each is timed by the
// benchmark itself; see the per-workload files.
type workload func(r *run) error

var workloads = map[string]workload{
	"exact-titin":    exactTitin,
	"exact-parallel": exactParallel,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (exact-titin, exact-parallel)")
		seed    = flag.Uint64("seed", 1, "workload seed: picks the order of the inputs and the serving probe's schedule")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		traced  = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		mutate  = flag.Bool("mutate-one", false, "negative control: corrupt one pair of the first report")
		gen     = flag.String("gen-refs", "", "recompute every reference digest with the reference engine and write them to this file")
		setup   = flag.Bool("setup-only", false, "time one set-up of the workload, print it and exit")
	)
	flag.Parse()
	if *gen != "" {
		if err := genRefs(*gen); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	// Either variable silently swaps the kernel tier the exact workloads
	// measure, so a run under one is refused rather than mislabelled.
	for _, v := range []string{"REPRO_KERNEL_TIER", "REPRO_NO_AVX2"} {
		if _, set := os.LookupEnv(v); set {
			fatal(fmt.Errorf("%s is set; it overrides the kernel tier, unset it to benchmark", v))
		}
	}
	out := bufio.NewWriter(os.Stdout)
	r := &run{Workload: *name, Seed: *seed, Seconds: *seconds, Traced: *traced == 1,
		MutateOne: *mutate, SetupOnly: *setup, Metrics: map[string]metric{}, out: out}
	if r.SetupOnly {
		if err := w(r); !errors.Is(err, errSetupDone) {
			fatal(fmt.Errorf("set-up: %v", err))
		}
		out.Flush()
		return
	}
	r.note("host %s", fingerprint())
	r.note("workload %s seed %d seconds %g trace %d", *name, *seed, *seconds, *traced)
	if err := w(r); err != nil {
		out.Flush()
		fatal(err)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.note("%-28s %14.6g %s", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if r.Attempted < 1 {
		out.Flush()
		fatal(fmt.Errorf("no operation completed"))
	}
	b, err := json.Marshal(result{Correct: r.Mismatched == 0, Attempted: r.Attempted,
		Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		fatal(err)
	}
	out.Write(b)
	out.WriteString("\n")
	if err := out.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// fingerprint describes the host a result was measured on: CPU count,
// GOMAXPROCS, the vector flags the kernels care about, the detected and
// active group-kernel tier, and the Go version.
func fingerprint() string {
	flags := map[string]bool{}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "flags") {
				for _, f := range strings.Fields(line) {
					flags[f] = true
				}
				break
			}
		}
	}
	var have []string
	for _, f := range []string{"avx2", "avx512f", "avx512bw"} {
		if flags[f] {
			have = append(have, f)
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu_flags=%s tier_detected=%s tier_active=%s go=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), strings.Join(have, ","),
		multialign.DetectedTier(), multialign.ActiveTier(), runtime.Version())
}

// errSetupDone ends a -setup-only run once its set-up is timed.
var errSetupDone = errors.New("set-up done")

// setUp returns the environment for the timed phase and, on an untraced
// run, sets setup_s: the median of k cold set-ups, this process's own
// and k-1 more each in a fresh process (-setup-only), so lazy state a
// process builds once is paid by every sample.
func setUp[E interface{ close() }](r *run, k int, f func() (E, error)) (E, error) {
	t0 := time.Now()
	env, err := f()
	own := time.Since(t0).Seconds()
	if err != nil {
		return env, err
	}
	if r.SetupOnly {
		env.close()
		fmt.Fprintf(r.out, "%s\n", strconv.FormatFloat(own, 'g', -1, 64))
		return env, errSetupDone
	}
	times := []float64{own}
	if !r.Traced {
		exe, err := os.Executable()
		if err != nil {
			env.close()
			return env, err
		}
		for i := 1; i < k; i++ {
			cmd := exec.Command(exe, "-workload", r.Workload, "-seed", strconv.FormatUint(r.Seed, 10), "-setup-only")
			cmd.Stderr = os.Stderr
			b, err := cmd.Output()
			if err == nil {
				var t float64
				t, err = strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
				times = append(times, t)
			}
			if err != nil {
				env.close()
				return env, fmt.Errorf("set-up in a fresh process: %w", err)
			}
		}
		r.set("setup_s", median(times), "s")
	}
	r.note("setup_s samples (this process first) %v", times)
	return env, nil
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS watermark, so peakRSSMB covers only what follows.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux >= 4.0). Where it is
	// refused the watermark stays process-wide, which only overstates.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
