// Command perfbench is the repository benchmark. One invocation runs one
// workload and prints, as the last line of standard output, a JSON object
// with the correctness verdict, the attempted and failed operation
// counts, and the metrics:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (README.md explains why each exists):
//
//	tester-planar  batches of core.RunTester on one random planar graph
//	tester-far     batches on two certified eps-far instances
//	serve-mixed    a planard child process driven over loopback HTTP
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation; with --trace 1 they are the per-layer ones, taken from
// a separate traced run. Inputs are generated from --seed only. Every
// output is checked against the construction truth of its input; any
// violation makes "correct" false and the exit status 1.
//
// perfbench is built and started by run.sh, which also builds planard
// from the same checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "tester-planar, tester-far, or serve-mixed")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 30, "measurement window, seconds")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		planard  = flag.String("planard", "", "planard binary (serve-mixed)")
		workdir  = flag.String("workdir", ".bench_build", "directory for per-run scratch files and span dumps")
	)
	flag.Parse()
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		planard:  *planard,
		workdir:  *workdir,
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	var run func(config, *report) error
	switch cfg.workload {
	case "tester-planar", "tester-far":
		run = runTester
	case "serve-mixed":
		run = runServe
	default:
		fatalf("unknown --workload %q (want tester-planar, tester-far, or serve-mixed)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatalf("workdir: %v", err)
	}
	rep := newReport()
	if err := run(cfg, rep); err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	rep.print()
	if !rep.correct() {
		os.Exit(1)
	}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	planard  string
	workdir  string
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// logf writes a progress line to standard error; standard output carries
// only the result object.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates the correctness gate and the metrics of one run.
// An operation is one unit of measured work (a tester call or an HTTP
// request); it fails when it errs or its output contradicts the
// construction truth of its input. A problem is a violated run-level
// invariant (determinism, hit accounting, zero interference).
type report struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// op records one attempted operation; a non-empty complaint fails it.
func (r *report) op(complaint string) {
	r.attempted++
	if complaint != "" {
		r.failed++
		if r.failed <= 20 {
			logf("FAIL: %s", complaint)
		}
	}
}

// problem records a run-level invariant violation.
func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	logf("FAIL: %s", msg)
}

func (r *report) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.problem("metric %s is not finite", name)
		value = 0
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) correct() bool {
	return r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
}

func (r *report) print() {
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB returns the peak resident set size of this process in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
