// Command perfbench is the repository's benchmark. It drives the system
// from one process through the modules' exported functions and prints, as
// its last line, one JSON object with the run's metrics:
//
//	bash perfbench/run.sh --workload fast-tier --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//   - fast-tier: an in-process prefetchd server on loopback answering every
//     request from its distilled table, under a closed loop of 2
//     connections × 32 streams.
//   - model-tier: the same server and load shape with every request on the
//     batched LSTM tier.
//   - offline-train: the Voyager slice of the Figure-5 pipeline on cc: train
//     and predict, unified accuracy, IPC simulation, distillation and the
//     distilled replay.
//
// With --trace 0 the run measures with tracing off and reports the
// end-to-end metrics; with --trace 1 it records spans from the benchmark's
// own code around each module call, writes one Chrome trace, and reports
// the per-layer metrics. Every run checks the program's outputs and counts
// failures into the "failed" field.
//
// "perfbench compare parent.jsonl change.jsonl" reads the result lines of
// paired runs (run i of each file ran back to back) and applies the claim
// rule metric by metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// defaultSeed drives trace generation and stream offsets when --seed is not
// given; checkSeed is the second seed for confirming a claim on inputs it
// was not tuned on.
const (
	defaultSeed = 1
	checkSeed   = 2
)

type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. Each has one definition per kind of workload (README.md):
// a serving request or one pipeline run is the "result" a caller waits for.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"peak_rss_mb", "MiB", false},
	{"latency_p50_us", "us", false},
	{"throughput_per_s", "1/s", true},
}

// perLayer are the traced run's metrics. A workload reports 0 for a layer
// its measured phase never enters.
var perLayer = []metricDef{
	{"serve.path_p50_ns", "ns", false},
	{"serve.path_p99_ns", "ns", false},
	{"serve.outside_path_us", "us", false},
	{"serve.batch_fill", "rows", true},
	{"serve.queue_wait_p50_us", "us", false},
	{"serve.tier_context_frac", "ratio", true},
	{"serve.tier_markov_frac", "ratio", true},
	{"serve.tier_miss_frac", "ratio", false},
	{"serve.codec_ns", "ns", false},
	{"client.encode_ns", "ns", false},
	{"client.write_ns", "ns", false},
	{"client.wait_ns", "ns", false},
	{"client.decode_ns", "ns", false},
	{"quality.accuracy", "ratio", true},
	{"distill.probe_ns", "ns", false},
	{"distilled.access_ns", "ns", false},
	{"vocab.codec_ns", "ns", false},
	{"voyager.predict_row_us", "us", false},
	{"tensor.predict_gflops", "GFLOP/s", true},
	{"voyager.train_s", "s", false},
	{"voyager.train_step_ms", "ms", false},
	{"voyager.train_steps", "count", false},
	{"voyager.forward_frac", "ratio", false},
	{"voyager.backward_frac", "ratio", false},
	{"voyager.optimizer_frac", "ratio", false},
	{"voyager.predict_step_ms", "ms", false},
	{"voyager.predict_batches", "count", false},
	{"tensor.train_gflops", "GFLOP/s", true},
	{"workloads.generate_ms", "ms", false},
	{"sim.filter_ms", "ms", false},
	{"vocab.build_ms", "ms", false},
	{"label.compute_ms", "ms", false},
	{"eval.unified_ms", "ms", false},
	{"eval.unified_accuracy", "ratio", true},
	{"sim.simulate_ms", "ms", false},
	{"sim.accesses_per_s", "1/s", true},
	{"sim.ipc_speedup", "ratio", true},
	{"distill.compile_ms", "ms", false},
	{"distill.keys", "count", true},
	{"distill.table_bytes", "bytes", false},
	{"distill.agreement", "ratio", true},
	{"go.gc_cycles", "count", false},
	{"go.alloc_bytes_per_op", "bytes", false},
	{"bench.trace_overhead", "ratio", false},
}

// options are one run's arguments.
type options struct {
	seed     int64
	seconds  int
	traced   bool
	traceOut string
}

// result is what a workload hands back for printing.
type result struct {
	attempted, failed int
	failures          []string // the first few failed checks, for the log
	values            map[string]float64
	notes             []string // figures printed by name but not in the JSON
	steal             float64  // CPU steal share over the measured phase, NaN if unknown
}

func newResult() *result {
	return &result{values: map[string]float64{}, steal: math.NaN()}
}

// fail counts one failed output check and keeps its description.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// note records a figure printed by name with its unit and sample count.
func (r *result) note(name string, v float64, unit string, n int) {
	r.notes = append(r.notes, fmt.Sprintf("%-24s %14.6g %-7s (n=%d)", name, v, unit, n))
}

var runners = map[string]func(options) (*result, error){
	"fast-tier":     func(o options) (*result, error) { return runServing(o, true) },
	"model-tier":    func(o options) (*result, error) { return runServing(o, false) },
	"offline-train": runOffline,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "fast-tier, model-tier or offline-train")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed: trace generation and stream offsets (confirm a claim with %d too)", checkSeed))
	seconds := fs.Int("seconds", 10, "measured-phase budget in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace path for --trace 1 (default .bench_build/perfbench-<workload>.trace.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := runners[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want fast-tier, model-tier or offline-train)", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, traceOut: *traceOut}
	if o.traced && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "perfbench-"+*workload+".trace.json")
	}
	if o.traced {
		if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %d s, trace %d\n", *workload, o.seed, o.seconds, *trace)
	res, err := wl(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, hostLine(res.steal))
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	for _, f := range res.failures {
		fmt.Fprintln(stdout, "  FAILED CHECK: "+f)
	}
	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(stdout, "  %-24s %14.6g %-7s (%d of %d)\n", "failed_frac", failedFrac, "ratio", res.failed, res.attempted)

	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok && !o.traced {
			return fmt.Errorf("workload produced no %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is %v", d.name, v)
		}
		fmt.Fprintf(stdout, "  %-24s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// readPeakRSS records the process's peak resident set (VmHWM) so far as
// peak_rss_mb. Workloads call it when their measured phase ends, before the
// benchmark's own checks and statistics allocate.
func readPeakRSS(r *result) error {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return fmt.Errorf("peak RSS: %w", err)
			}
			r.values["peak_rss_mb"] = kb / 1024
			return nil
		}
	}
	return errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// hostLine records the machine a run measured on, so a noisy run is
// visible instead of averaged in.
func hostLine(steal float64) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	st := "unknown"
	if !math.IsNaN(steal) {
		st = fmt.Sprintf("%.1f%%", 100*steal)
	}
	return fmt.Sprintf("host: nproc %d, GOMAXPROCS %d, %s, commit %s, CPU steal %s of the measured phase",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, st)
}

// cpuTimes reads the aggregate CPU line of /proc/stat: total jiffies and
// the steal share of them.
func cpuTimes() (total, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is left out.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter measures the CPU steal share between start and stop.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTimes()
	return stealMeter{total: t, steal: s, ok: ok}
}

func (m stealMeter) stop() float64 {
	t, s, ok := cpuTimes()
	if !m.ok || !ok || t <= m.total {
		return math.NaN()
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// memMeter measures GC cycles and allocated bytes over a phase.
type memMeter struct{ gc, alloc uint64 }

func startMem() memMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMeter{gc: uint64(ms.NumGC), alloc: ms.TotalAlloc}
}

// stop records go.gc_cycles and go.alloc_bytes_per_op over ops operations.
func (m memMeter) stop(r *result, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.values["go.gc_cycles"] = float64(uint64(ms.NumGC) - m.gc)
	if ops > 0 {
		r.values["go.alloc_bytes_per_op"] = float64(ms.TotalAlloc-m.alloc) / float64(ops)
	}
}

// timeMedian calls f reps times and returns the median wall time.
func timeMedian(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// compare reads two files of result lines and prints, per metric, each
// side's median and quartiles and the claim rule's verdict.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare parent.jsonl change.jsonl")
	}
	parent, err := readResults(args[0])
	if err != nil {
		return err
	}
	change, err := readResults(args[1])
	if err != nil {
		return err
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			p, c := parent[d.name], change[d.name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-24s parent %.6g [%.6g, %.6g] spread %.3f  change %.6g [%.6g, %.6g] spread %.3f %s  %d pairs: %v\n",
				d.name, median(p), pq1, pq3, spread(p), median(c), cq1, cq3, spread(c), d.unit,
				min(len(p), len(c)), compareRuns(p, c, !d.higher))
		}
	}
	return nil
}

// readResults collects each metric's values from the JSON result lines of
// a file, in file order.
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var line struct {
			Metrics map[string]jsonMetric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Metrics == nil {
			continue // a log line, not a result
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				if m, ok := line.Metrics[d.name]; ok {
					out[d.name] = append(out[d.name], m.Value)
				}
			}
		}
	}
	return out, sc.Err()
}
