// Command perfbench is rdfsum's benchmark. It generates a seeded dataset
// and request stream, drives a real rdfsumd child process through the
// typed client (or rdfsum CLI child processes), checks every answer
// against references computed in-process, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -bin DIR -work DIR --workload bsbm-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also replays the same stream in-process, with spans around each
// library call the handler makes, and reports the per-layer metrics.
// run.sh builds the binaries and passes -bin and -work. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// params sizes a workload. fullParams is the benchmark; toyParams keeps
// the package's smoke tests fast.
type params struct {
	products      int // BSBM scale factor
	universities  int // LUBM scale factor
	setups        int // set-ups per run; setup_s is their median
	summaryEvery  int // bsbm-mixed: 1 in N reads is a GET /v1/summary
	analyticLimit int
	writeEvery    time.Duration // bsbm-mixed open-loop batch interval
	batchTriples  int
	compactEvery  time.Duration
	countQueries  int // queries in the deterministic count-only pass
	countBatches  int // write batches applied before the count pass
}

var fullParams = params{
	products: 5000, universities: 151, setups: 3,
	summaryEvery: 200, analyticLimit: 1000,
	writeEvery: 2 * time.Second, batchTriples: 200, compactEvery: 10 * time.Second,
	countQueries: 200, countBatches: 20,
}

var toyParams = params{
	products: 200, universities: 2, setups: 2,
	summaryEvery: 20, analyticLimit: 100,
	writeEvery: 50 * time.Millisecond, batchTriples: 50, compactEvery: 10 * time.Second,
	countQueries: 30, countBatches: 5,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects its output.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string
	work     string // this run's scratch directory
	traceDir string // where span dumps are kept
	p        params
	out      *os.File

	start     time.Time
	lastStage time.Time

	attempted, failed int
	e2e               map[string]metric
	layer             map[string]metric
}

func (r *run) duration() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

// say prints one report line.
func (r *run) say(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

// stage reports the wall time spent since the previous stage.
func (r *run) stage(name string) {
	now := time.Now()
	r.say("stage    %-28s %.2fs (at %.2fs)", name, now.Sub(r.lastStage).Seconds(), now.Sub(r.start).Seconds())
	r.lastStage = now
}

// prop reports a workload property.
func (r *run) prop(name string, format string, args ...any) {
	r.say("property %-28s %s", name, fmt.Sprintf(format, args...))
}

// metric reports a named metric with its unit and sample count; e2e
// names the ones that go into the end-to-end result.
func (r *run) metric(set map[string]metric, name string, value float64, unit string, samples int) {
	if set != nil {
		set[name] = metric{Value: value, Unit: unit}
	}
	r.say("metric   %-28s %.6g %s (n=%d)", name, value, unit, samples)
}

// count adds operations and their failures to the run's totals.
func (r *run) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// cpuTicks is the machine-wide CPU time from /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads /proc/stat's cpu line (zero where unavailable).
func readCPUTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

var workloads = map[string]func(*run) error{
	"bsbm-read":      func(r *run) error { return runServe(r, false) },
	"bsbm-mixed":     func(r *run) error { return runServe(r, true) },
	"lubm-summarize": runSummarize,
}

func main() {
	workload := flag.String("workload", "", "bsbm-read, bsbm-mixed or lubm-summarize")
	seed := flag.Uint64("seed", 1, "workload seed: datasets and request streams derive from it")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from the traced in-process replay")
	bin := flag.String("bin", "", "directory holding the rdfsumd and rdfsum binaries")
	work := flag.String("work", "", "scratch directory for datasets and stores")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, --seconds > 0 and --workload one of bsbm-read, bsbm-mixed, lubm-summarize")
		os.Exit(2)
	}
	res, err := execute(*workload, fn, *seed, *seconds, *traceFlag == 1, *bin, *work, fullParams, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// execute runs one workload at size p in a fresh scratch directory it
// removes afterwards.
func execute(workload string, fn func(*run) error, seed uint64, seconds float64, trace bool, bin, work string, p params, out *os.File) (*result, error) {
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		bin: bin, work: dir, traceDir: filepath.Join(work, "traces"), p: p, out: out,
		e2e: map[string]metric{}, layer: map[string]metric{},
		start: time.Now(), lastStage: time.Now(),
	}
	r.prop("workload", "%s", workload)
	r.prop("seed", "%d", seed)
	r.prop("nproc/GOMAXPROCS", "%d/%d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	r.prop("measured_seconds", "%g", seconds)
	cpu0 := readCPUTicks()
	if err := fn(r); err != nil {
		return nil, err
	}
	if cpu1 := readCPUTicks(); cpu1.total > cpu0.total {
		r.prop("cpu_steal_share", "%.4f of CPU time was stolen by the host during the run", float64(cpu1.steal-cpu0.steal)/float64(cpu1.total-cpu0.total))
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	r.say("metric   %-28s %.6g ratio (n=%d)", "error_rate", float64(r.failed)/float64(r.attempted), r.attempted)
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if trace {
		res.Metrics = r.layer
		for _, name := range layerMetrics {
			if _, ok := r.layer[name.name]; !ok {
				r.metric(r.layer, name.name, 0, name.unit, 0) // not exercised by this workload
			}
		}
	}
	return res, nil
}
