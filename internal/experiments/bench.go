package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"voyager/internal/distill"
	"voyager/internal/metrics"
	"voyager/internal/nn"
	"voyager/internal/prefetch/distilled"
	"voyager/internal/tensor"
	"voyager/internal/tracing"
	"voyager/internal/voyager"
	"voyager/internal/workloads"

	"math/rand"
)

// BenchEntry is one timed kernel or pipeline stage. Besides wall time it
// records the allocator profile (bytes and allocations per op, plus the
// number of GC cycles the whole timed run triggered) so allocation
// regressions on the hot path are visible in the report, and — when a
// baseline report is supplied — the wall-time ratio against that baseline.
type BenchEntry struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	Iterations  int    `json:"iterations"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	GCCycles    uint32 `json:"gc_cycles"`

	// BaselineNsPerOp/SpeedupVsBaseline are filled by Compare when the same
	// entry exists in the baseline report (0 otherwise).
	BaselineNsPerOp   int64   `json:"baseline_ns_per_op,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// BenchReport is the machine-readable output of the -bench harness
// (BENCH_pr1.json). Serial entries run with Workers=1 (bit-identical to the
// pre-parallel implementation); parallel entries run at Workers, so the
// speedup fields measure the data-parallel engine on this machine.
type BenchReport struct {
	GOMAXPROCS     int          `json:"gomaxprocs"`
	PoolWorkers    int          `json:"pool_workers"`
	Workers        int          `json:"workers"`
	Entries        []BenchEntry `json:"entries"`
	TrainSpeedup   float64      `json:"train_batch_speedup"`
	Figure5Speedup float64      `json:"figure5_speedup"`
	// MetricsOverhead is train_batch_serial_metrics over train_batch_serial
	// ns/op: the cost of running a full optimizer step with the
	// observability registry attached (acceptance bound: < 1.03).
	MetricsOverhead float64 `json:"train_metrics_overhead,omitempty"`
	// TraceOverhead is train_batch_serial_trace over train_batch_serial
	// ns/op: the cost of the same step with the execution-span tracer
	// recording (acceptance bound: < 1.05).
	TraceOverhead float64 `json:"train_trace_overhead,omitempty"`
	// DistilledTop1Agreement is the default distilled table's top-1
	// agreement with the fp32 teacher on the calibration-held-out half of
	// the bench trace (acceptance bound: ≥ 0.90).
	DistilledTop1Agreement float64 `json:"distilled_top1_agreement,omitempty"`
	// DistilledTableBytes is that table's in-memory (and on-disk payload)
	// footprint.
	DistilledTableBytes int `json:"distilled_table_bytes,omitempty"`
	// DistilledSpeedupPerPred is predict_batch_serial amortized per batch
	// row over predict_distilled ns/op: how much faster one tabularized
	// prediction is than one serial fp32 model prediction (acceptance
	// bound: ≥ 20).
	DistilledSpeedupPerPred float64 `json:"distilled_speedup_per_prediction,omitempty"`
	// DistilledFP32NsPerPred is the teacher's amortized per-row inference
	// cost at full batch width, for context.
	DistilledFP32NsPerPred int64 `json:"distilled_teacher_fp32_ns_per_prediction,omitempty"`
	// DistillSweep is the differential harness: table size vs held-out
	// top-1 agreement with the teacher vs ns/prediction.
	DistillSweep []DistillPoint `json:"distill_sweep,omitempty"`
	// Serving-path numbers from an in-process prefetchd under
	// ServeStreams concurrent client streams (see serve.go). ServeFastP99Ns
	// is the exact nearest-rank p99 of the fast tier's prediction-path
	// latency (acceptance bound: < 10x predict_distilled ns/op, recorded
	// here as ServeFastVsDistilled); ServeBatchFill is the exact mean
	// PredictBatch occupancy (rows/batches) in the model phase.
	ServeStreams         int     `json:"serve_streams,omitempty"`
	ServeFastP50Ns       int64   `json:"serve_p50_ns,omitempty"`
	ServeFastP99Ns       int64   `json:"serve_p99_ns,omitempty"`
	ServeModelP99Ns      int64   `json:"serve_model_p99_ns,omitempty"`
	ServeBatchFill       float64 `json:"serve_batch_fill,omitempty"`
	ServeFastVsDistilled float64 `json:"serve_p99_vs_distilled,omitempty"`
	// ServeQualityP99Ns is the fast tier's prediction-path p99 with online
	// quality self-scoring live; ServeQualityOverhead is its ratio over the
	// telemetry-off ServeFastP99Ns. Scoring runs strictly after the latency
	// record, so this gates the indirect cost of quality telemetry
	// (acceptance bound: < 1.05). Shadow sampling is off in this phase —
	// its model-inference CPU cost tracks the 1-in-N knob by design (see
	// serve.go) and is covered by the serve e2e suite, not this gate.
	ServeQualityP99Ns    int64   `json:"serve_quality_p99_ns,omitempty"`
	ServeQualityOverhead float64 `json:"serve_quality_overhead,omitempty"`
	Baseline             string  `json:"baseline,omitempty"` // path of the compared report
	Notes                string  `json:"notes,omitempty"`
}

func (r *BenchReport) entry(name string) *BenchEntry {
	for i := range r.Entries {
		if r.Entries[i].Name == name {
			return &r.Entries[i]
		}
	}
	return nil
}

// String renders the report as an aligned table.
func (r *BenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bench (GOMAXPROCS=%d, pool=%d, workers=%d)\n",
		r.GOMAXPROCS, r.PoolWorkers, r.Workers)
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %-28s %14d ns/op %10d B/op %8d allocs/op %4d GCs  (%d iters)",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, e.GCCycles, e.Iterations)
		if e.SpeedupVsBaseline > 0 {
			fmt.Fprintf(&b, "  %.2fx vs baseline", e.SpeedupVsBaseline)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  TrainBatch speedup  %.2fx\n", r.TrainSpeedup)
	fmt.Fprintf(&b, "  Figure-5  speedup   %.2fx", r.Figure5Speedup)
	if r.MetricsOverhead > 0 {
		fmt.Fprintf(&b, "\n  Metrics overhead    %.3fx (train_batch_serial)", r.MetricsOverhead)
	}
	if r.TraceOverhead > 0 {
		fmt.Fprintf(&b, "\n  Trace overhead      %.3fx (train_batch_serial)", r.TraceOverhead)
	}
	if r.DistilledTop1Agreement > 0 {
		fmt.Fprintf(&b, "\n  Distilled top-1     %.3f vs fp32 teacher (held-out)", r.DistilledTop1Agreement)
	}
	if r.DistilledSpeedupPerPred > 0 {
		fmt.Fprintf(&b, "\n  Distilled speedup   %.0fx per prediction vs serial fp32 (%d B table)",
			r.DistilledSpeedupPerPred, r.DistilledTableBytes)
	}
	for _, p := range r.DistillSweep {
		fmt.Fprintf(&b, "\n    distill log2=%2d %9d B %6d keys  fp32 %.3f  %8d ns/pred",
			p.Log2Buckets, p.TableBytes, p.Keys, p.Top1VsFP32, p.NsPerPred)
	}
	if r.ServeStreams > 0 {
		fmt.Fprintf(&b, "\n  Serve (%d streams)   fast p50 %d ns  p99 %d ns (%.1fx predict_distilled)  model p99 %.2f ms  batch fill %.1f/%d",
			r.ServeStreams, r.ServeFastP50Ns, r.ServeFastP99Ns, r.ServeFastVsDistilled,
			float64(r.ServeModelP99Ns)/1e6, r.ServeBatchFill, serveBenchMaxBatch)
	}
	if r.ServeQualityOverhead > 0 {
		fmt.Fprintf(&b, "\n  Quality overhead    %.3fx (fast p99 %d ns with online self-scoring)",
			r.ServeQualityOverhead, r.ServeQualityP99Ns)
	}
	return b.String()
}

// JSON marshals the report with indentation.
func (r *BenchReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Compare fills each entry's baseline wall time and speedup ratio from a
// previous report (entries are matched by name; missing ones are skipped).
func (r *BenchReport) Compare(baseline *BenchReport, path string) {
	if baseline == nil {
		return
	}
	r.Baseline = path
	for i := range r.Entries {
		e := &r.Entries[i]
		if be := baseline.entry(e.Name); be != nil && e.NsPerOp > 0 {
			e.BaselineNsPerOp = be.NsPerOp
			e.SpeedupVsBaseline = float64(be.NsPerOp) / float64(e.NsPerOp)
		}
	}
}

// LoadBenchReport parses a previously written bench JSON report.
func LoadBenchReport(data []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func timeIt(name string, fn func(b *testing.B)) BenchEntry {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	runtime.ReadMemStats(&after)
	return BenchEntry{
		Name:        name,
		NsPerOp:     res.NsPerOp(),
		Iterations:  res.N,
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		GCCycles:    after.NumGC - before.NumGC,
	}
}

// timeBest times fn n times and keeps the fastest run. The gated entries
// use it: a wall-clock ratio gate on a shared container needs min-of-N to
// tell scheduler noise (a few percent, uncorrelated across runs) from a
// real kernel regression (systematic, survives the min).
func timeBest(name string, n int, fn func(b *testing.B)) BenchEntry {
	best := timeIt(name, fn)
	for i := 1; i < n; i++ {
		if e := timeIt(name, fn); e.NsPerOp < best.NsPerOp {
			best = e
		}
	}
	return best
}

// benchHarness builds a voyager.BenchHarness over the cc benchmark's raw
// trace at the harness scale, with the given data-parallel width.
func (o Options) benchHarness(workers int) (*voyager.BenchHarness, error) {
	tr, err := workloads.Generate("cc", o.workloadConfig())
	if err != nil {
		return nil, err
	}
	cfg := o.voyagerConfig(tr.Len())
	cfg.Workers = workers
	return voyager.NewBenchHarness(tr, cfg)
}

// Bench times the performance-critical stages of the training engine:
// the three matmul kernels, one LSTM step, a full TrainBatch optimizer step
// at Workers=1 versus Workers=workers, and the Figure-5 pipeline end to end
// at both widths. workers ≤ 0 means voyager.WorkersAuto.
func (o Options) Bench(workers int) (*BenchReport, error) {
	if workers <= 0 {
		workers = tensor.PoolWorkers()
	}
	r := &BenchReport{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		PoolWorkers: tensor.PoolWorkers(),
		Workers:     workers,
		Notes: fmt.Sprintf("serial entries (Workers=1) are bit-identical to the "+
			"pre-parallel implementation; speedup fields compare Workers=1 vs "+
			"Workers=%d on this machine (GOMAXPROCS=%d) and only show parallel "+
			"gains when GOMAXPROCS>=2. Pre-arena (PR 1) allocator profile for "+
			"reference, measured on this harness before the tape arena landed: "+
			"train_batch_serial 3616 allocs/op, 14833976 B/op; the arena's "+
			"allocs_per_op below should be >=10x lower", workers, runtime.GOMAXPROCS(0)),
	}

	// Matmul kernels at a Table-1-like shape (256×256).
	const mdim = 256
	rng := rand.New(rand.NewSource(o.Seed))
	a, bm := tensor.NewMat(mdim, mdim), tensor.NewMat(mdim, mdim)
	a.Uniform(rng, 1)
	bm.Uniform(rng, 1)
	dst := tensor.NewMat(mdim, mdim)
	o.logf("  bench: matmul kernels (%dx%d)...", mdim, mdim)
	r.Entries = append(r.Entries,
		timeBest("matmul_256", 3, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMul(dst, a, bm)
			}
		}),
		timeIt("matmul_atrans_b_256", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMulATransB(dst, a, bm)
			}
		}),
		timeIt("matmul_abtrans_256", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMulABTrans(dst, a, bm)
			}
		}))

	// One LSTM step at the paper's hidden size, batch 64.
	o.logf("  bench: lstm step...")
	lstm := nn.NewLSTM("bench", 256, 256, rng)
	x := tensor.NewMat(64, 256)
	x.Uniform(rng, 1)
	ltp := tensor.NewTape() // long-lived tape + Reset: the production pattern
	r.Entries = append(r.Entries, timeIt("lstm_step_b64_h256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ltp.Reset()
			lstm.Step(ltp, ltp.Const(x), lstm.ZeroState(ltp, 64))
		}
	}))

	// Full optimizer step on a real minibatch, serial vs parallel.
	serialPredictRows := 0
	for _, v := range []struct {
		name    string
		workers int
	}{{"train_batch_serial", 1}, {"train_batch_parallel", workers}} {
		o.logf("  bench: %s...", v.name)
		h, err := o.benchHarness(v.workers)
		if err != nil {
			return nil, err
		}
		if v.workers == 1 {
			serialPredictRows = h.BatchRows()
		}
		r.Entries = append(r.Entries, timeIt(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.TrainStep()
			}
		}))
		// The serial predict entry is gated in verify.sh, so de-noise it.
		reps := 1
		if v.workers == 1 {
			reps = 3
		}
		r.Entries = append(r.Entries, timeBest(
			strings.Replace(v.name, "train", "predict", 1), reps, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					h.PredictStep()
				}
			}))
	}

	// The distilled fast path: train a serial teacher on the harness trace,
	// run the table-size differential sweep against it, then time the
	// headline online replay of the default-parameter table (compiled on
	// the calibration half, scored on the held-out half).
	{
		o.logf("  bench: distill sweep + predict_distilled...")
		tr, err := workloads.Generate("cc", o.workloadConfig())
		if err != nil {
			return nil, err
		}
		cfg := o.voyagerConfig(tr.Len())
		cfg.Workers = 1
		p, err := voyager.Train(tr, cfg)
		if err != nil {
			return nil, err
		}
		cells, fp32Ns := sweepDistill(p, tr, distillSweepLog2s)
		r.DistilledFP32NsPerPred = fp32Ns
		for _, c := range cells {
			pt := c.point
			pt.Benchmark = "cc"
			r.DistillSweep = append(r.DistillSweep, pt)
		}
		half := p.NumAccesses() / 2
		tab := distill.Compile(p, 0, half, distill.DefaultParams())
		pf, err := distilled.New(tab, p.Model.Vocab(), 1)
		if err != nil {
			return nil, err
		}
		accs := tr.Accesses
		idx := 0
		r.Entries = append(r.Entries, timeIt("predict_distilled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pf.Access(idx, accs[idx])
				idx++
				if idx == len(accs) {
					idx = 0
					pf.Reset()
				}
			}
		}))
		r.DistilledTop1Agreement = distill.Agreement(p, tab, heldOutPositions(p.NumAccesses()))
		r.DistilledTableBytes = tab.Bytes()

		// The serving path on the same teacher and table: an in-process
		// prefetchd on loopback under 64 concurrent client streams.
		o.logf("  bench: serve (64 streams, fast + model tiers)...")
		sres, err := serveBench(p.Model, tab, tr)
		if err != nil {
			return nil, err
		}
		r.ServeStreams = serveBenchStreams
		r.ServeFastP50Ns = sres.fastP50Ns
		r.ServeFastP99Ns = sres.fastP99Ns
		r.ServeModelP99Ns = sres.modelP99Ns
		r.ServeBatchFill = sres.batchFill
		r.ServeQualityP99Ns = sres.qualityP99Ns
		if sres.fastP99Ns > 0 && sres.qualityP99Ns > 0 {
			r.ServeQualityOverhead = float64(sres.qualityP99Ns) / float64(sres.fastP99Ns)
		}
	}

	// The same serial optimizer step with metrics enabled: the difference
	// against train_batch_serial is the full observability overhead (timers,
	// counters and the per-step grad-norm scan).
	{
		o.logf("  bench: train_batch_serial_metrics...")
		opts := o
		opts.Metrics = metrics.NewRegistry()
		h, err := opts.benchHarness(1)
		if err != nil {
			return nil, err
		}
		r.Entries = append(r.Entries, timeIt("train_batch_serial_metrics", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.TrainStep()
			}
		}))
	}

	// The same serial optimizer step with the execution-span tracer
	// recording to an in-memory arena: the difference against
	// train_batch_serial is the tracing hot-path cost.
	{
		o.logf("  bench: train_batch_serial_trace...")
		opts := o
		opts.Trace = tracing.New(tracing.Options{})
		h, err := opts.benchHarness(1)
		if err != nil {
			return nil, err
		}
		r.Entries = append(r.Entries, timeIt("train_batch_serial_trace", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.TrainStep()
			}
		}))
	}

	// Figure 5 end to end: trace generation, LLC filter, online-protocol
	// training and accuracy scoring, serial vs parallel.
	for _, v := range []struct {
		name    string
		workers int
	}{{"figure5_serial", 1}, {"figure5_parallel", workers}} {
		o.logf("  bench: %s...", v.name)
		opts := o
		opts.Workers = v.workers
		opts.Benchmarks = []string{"cc"}
		r.Entries = append(r.Entries, timeIt(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := NewRun(opts)
				if s := run.Main().Figure5(); s == "" {
					b.Fatal("empty figure 5")
				}
			}
		}))
	}

	if s, p := r.entry("train_batch_serial"), r.entry("train_batch_parallel"); s != nil && p != nil && p.NsPerOp > 0 {
		r.TrainSpeedup = float64(s.NsPerOp) / float64(p.NsPerOp)
	}
	if s, p := r.entry("figure5_serial"), r.entry("figure5_parallel"); s != nil && p != nil && p.NsPerOp > 0 {
		r.Figure5Speedup = float64(s.NsPerOp) / float64(p.NsPerOp)
	}
	if s, m := r.entry("train_batch_serial"), r.entry("train_batch_serial_metrics"); s != nil && m != nil && s.NsPerOp > 0 {
		r.MetricsOverhead = float64(m.NsPerOp) / float64(s.NsPerOp)
	}
	if s, t := r.entry("train_batch_serial"), r.entry("train_batch_serial_trace"); s != nil && t != nil && s.NsPerOp > 0 {
		r.TraceOverhead = float64(t.NsPerOp) / float64(s.NsPerOp)
	}
	if s, d := r.entry("predict_batch_serial"), r.entry("predict_distilled"); s != nil && d != nil &&
		d.NsPerOp > 0 && serialPredictRows > 0 {
		r.DistilledSpeedupPerPred = float64(s.NsPerOp) / float64(serialPredictRows) / float64(d.NsPerOp)
	}
	if d := r.entry("predict_distilled"); d != nil && d.NsPerOp > 0 && r.ServeFastP99Ns > 0 {
		r.ServeFastVsDistilled = float64(r.ServeFastP99Ns) / float64(d.NsPerOp)
	}
	return r, nil
}

// benchGates are the entries the bench-smoke gate guards and the minimum
// acceptable speedup-vs-baseline for each. Both are measured
// min-of-3 (timeBest), which removes uncorrelated scheduler noise. The
// floors differ because the residual drift differs: the long model-bound
// predict batches land anywhere in 0.6-1.1x of a prior run with no code
// change at all (sustained-load throttling), so their floor only catches
// step-change regressions — an accidental O(n) in the batch path, a
// dropped kernel — not drift. The matmul floor was originally 0.95 on
// the belief the short kernel repeats within ±5%; re-measuring at PR 9
// (three clean full-suite runs, zero kernel changes since the baseline)
// put identical code at 0.69-0.88x of the recorded baseline — the
// shared container's host-level drift hits short kernels too. 0.80
// tolerates that drift while still failing the regression class the
// gate exists for: PR-5 was a 0.72x step change from a favorable-window
// baseline, i.e. well under 0.80 whenever the host is healthy. If this
// gate trips, rerun the suite on an idle machine before believing it.
var benchGates = []struct {
	name string
	min  float64
}{
	{"matmul_256", 0.80},
	{"predict_batch_serial", 0.75},
}

// serveQualityOverheadMax gates serve_quality_overhead: the fast tier's p99
// with quality telemetry live may cost at most 5% over the telemetry-off
// run recorded in the same report. Unlike the speedup gates this compares
// two phases of one suite run minutes apart in one process, so host-level
// drift largely cancels; a trip means scoring or shadow sampling leaked
// onto the latency path. Reports from before the quality phase existed
// have no field and pass vacuously.
const serveQualityOverheadMax = 1.05

// CheckBenchReport is the bench-smoke gate run by scripts/verify.sh: it
// loads the newest BENCH_pr<N>.json in dir and fails if any guarded entry
// regressed past its gate against the report's recorded baseline. A missing
// report passes vacuously, as does an entry with no baseline chain (the
// first run that records it); a recorded slowdown does not. matmul_256 is
// required to exist — every report since PR 1 has it.
func CheckBenchReport(dir string) (string, error) {
	path, _ := LatestBenchReportPath(dir)
	if path == "" {
		return "bench-check: no BENCH_pr<N>.json found (nothing to gate)", nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("bench-check: %v", err)
	}
	r, err := LoadBenchReport(data)
	if err != nil {
		return "", fmt.Errorf("bench-check: %s: %v", path, err)
	}
	var msgs []string
	for _, g := range benchGates {
		e := r.entry(g.name)
		if e == nil {
			if g.name == "matmul_256" {
				return "", fmt.Errorf("bench-check: %s has no matmul_256 entry", path)
			}
			msgs = append(msgs, g.name+" absent (pre-gate report)")
			continue
		}
		if e.SpeedupVsBaseline == 0 {
			msgs = append(msgs, fmt.Sprintf("%s %d ns/op (no baseline chain)", g.name, e.NsPerOp))
			continue
		}
		if e.SpeedupVsBaseline < g.min {
			return "", fmt.Errorf("bench-check: %s: %s %.2fx vs baseline %s — regressed past the %.2fx gate",
				path, g.name, e.SpeedupVsBaseline, r.Baseline, g.min)
		}
		msgs = append(msgs, fmt.Sprintf("%s %.2fx (%d -> %d ns/op)",
			g.name, e.SpeedupVsBaseline, e.BaselineNsPerOp, e.NsPerOp))
	}
	switch {
	case r.ServeQualityOverhead == 0:
		msgs = append(msgs, "serve_quality_overhead absent (pre-quality report)")
	case r.ServeQualityOverhead >= serveQualityOverheadMax:
		return "", fmt.Errorf("bench-check: %s: serve_quality_overhead %.3fx — quality telemetry leaked onto the fast path (gate %.2fx)",
			path, r.ServeQualityOverhead, serveQualityOverheadMax)
	default:
		msgs = append(msgs, fmt.Sprintf("serve_quality_overhead %.3fx", r.ServeQualityOverhead))
	}
	return fmt.Sprintf("bench-check: %s: %s", path, strings.Join(msgs, ", ")), nil
}

// LatestBenchReportPath returns the highest-numbered BENCH_pr<N>.json in dir
// and its N ("", 0 when none exist). The bench delta chain compares each new
// report against the latest existing one, so gaps in the numbering (a PR
// that didn't re-bench) don't break the chain.
func LatestBenchReportPath(dir string) (string, int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0
	}
	best := 0
	for _, e := range entries {
		var n int
		// Sscanf tolerates trailing input, so require the exact round-trip.
		if _, err := fmt.Sscanf(e.Name(), "BENCH_pr%d.json", &n); err == nil &&
			e.Name() == fmt.Sprintf("BENCH_pr%d.json", n) && n > best {
			best = n
		}
	}
	if best == 0 {
		return "", 0
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_pr%d.json", best)), best
}
