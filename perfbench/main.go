// Command perfbench is the repository's benchmark. It drives the replicated
// log over loopback TCP and the deterministic simulator through the module's
// public entry points, checks every output, and prints one JSON result as
// the last line of standard output.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload log-tcp-open --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of the workload; --trace 1 runs
// the per-layer suite instead. README.md explains the workloads and the
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation: its settings, the metrics it has put, and the
// correctness problems it has found.
type run struct {
	seed      uint64
	seconds   time.Duration
	attempted int
	failed    int
	metrics   map[string]metric
	problems  []string
}

func newRun(seed uint64, seconds time.Duration) *run {
	return &run{seed: seed, seconds: seconds, metrics: map[string]metric{}}
}

// put records a metric.
func (r *run) put(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// problem records a failed correctness check.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count adds units of work attempted and failed.
func (r *run) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *run) result() result {
	return result{
		Correct:   len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// workloads maps each workload name to its untraced run. The traced run of
// any workload is runTraced.
var workloads = map[string]func(*run) error{
	"log-tcp-open":   logOpen,
	"log-tcp-closed": logClosed,
	"sim-zoo":        simZoo,
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run: log-tcp-open | log-tcp-closed | sim-zoo")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long the timed part of the run lasts")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.Parse()

	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds %d outside 1..60\n", *seconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace %d is not 0 or 1\n", *trace)
		return 2
	}
	r, err := measure(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := r.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one invocation of the named workload: its end-to-end
// metrics, or with traced the per-layer suite.
func measure(name string, seed uint64, seconds time.Duration, traced bool) (*run, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
	}
	r := newRun(seed, seconds)
	if traced {
		return r, runTraced(r, name)
	}
	if err := w(r); err != nil {
		return r, err
	}
	r.put("ok_frac", "frac", okFrac(r))
	r.put("peak_rss_mb", "MB", peakRSSMB())
	return r, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
