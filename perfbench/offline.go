package main

import (
	"fmt"
	"runtime"
	"time"

	"voyager/internal/distill"
	"voyager/internal/eval"
	"voyager/internal/label"
	"voyager/internal/metrics"
	"voyager/internal/prefetch"
	"voyager/internal/prefetch/distilled"
	"voyager/internal/sim"
	"voyager/internal/trace"
	"voyager/internal/tracing"
	"voyager/internal/vocab"
	"voyager/internal/voyager"
	"voyager/internal/workloads"
)

// The offline-train workload: the Voyager slice of the Figure-5 pipeline on
// cc at cmd/experiments' default scale (48k raw accesses, 4 epochs, hidden
// 64, 4 passes, serial workers). One pipeline run is the result a
// researcher waits for; the run repeats it and reports medians.
const (
	offlineBench    = "cc"
	offlineAccesses = 48_000
	offlineEpochs   = 4
	offlineHidden   = 64
	offlinePasses   = 4
	offlineDegree   = 1
	offlineSetups   = 5 // setup_s is the median of this many setups
	minPipelines    = 2 // the fewest pipeline runs a measured run makes
	heldOutMax      = 2048
)

// pipeline stage span names, in call order (child slots 1..).
var stageNames = [...]string{
	"voyager.Train", "eval.Unified", "sim.Simulate/none", "sim.Simulate/voyager",
	"distill.Compile", "distill.Agreement", "sim.Simulate/distilled",
}

// offlineInputs is the set-up state: the raw trace and its LLC stream.
type offlineInputs struct {
	raw, stream *trace.Trace
	origIdx     []int // stream position → raw index
}

// setupOffline generates the trace and filters it to the LLC stream, with
// a span around each module call when rec is set.
func setupOffline(seed int64, rec *spanRec) (offlineInputs, time.Duration, error) {
	t0 := time.Now()
	raw, err := workloads.Generate(offlineBench, workloads.Config{Seed: seed, Scale: 1, MaxAccesses: offlineAccesses})
	if err != nil {
		return offlineInputs{}, 0, err
	}
	t1 := time.Now()
	stream, idx := sim.FilterLLC(raw, sim.ScaledConfig())
	t2 := time.Now()
	rec.begin("setup", 0, t0)
	rec.span("workloads.Generate", 0, 1, t0, t1)
	rec.span("sim.FilterLLC", 0, 2, t1, t2)
	rec.end("setup", 0, t2)
	return offlineInputs{raw: raw, stream: stream, origIdx: idx}, t2.Sub(t0), nil
}

// voyagerConfig is cmd/experiments' configuration for a stream of n
// accesses.
func voyagerConfig(seed int64, n int) voyager.Config {
	cfg := voyager.ScaledConfig()
	cfg.Seed = seed
	cfg.EpochAccesses = max(n/offlineEpochs, 64)
	cfg.Hidden = offlineHidden
	cfg.PassesPerEpoch = offlinePasses
	cfg.DropoutKeep = 1
	cfg.Degree = offlineDegree
	return cfg
}

// pipelineOut is one pipeline run's outputs and timings.
type pipelineOut struct {
	wall, train        time.Duration
	trainSamples       int
	accuracy           float64
	base, voy, dist    sim.Result
	agreement          float64
	keys, tableBytes   int
	steps, predBatches uint64
	fwd, bwd, opt, stp float64 // summed train_* seconds (traced run only)
}

// outputs is the part of a pipeline's outputs that must repeat exactly.
func (p pipelineOut) outputs() [5]float64 {
	return [5]float64{p.accuracy, p.base.IPC, p.voy.IPC, p.dist.IPC, p.agreement}
}

// runPipeline trains and predicts, scores, simulates, distills and replays
// the distilled prefetcher. With rec set, each module call gets a span
// under the pipeline span of the given group; with reg set, the training
// run records into the instruments voyager already exports.
func runPipeline(in offlineInputs, seed int64, rec *spanRec, group uint64, reg *metrics.Registry) (pipelineOut, error) {
	var out pipelineOut
	cfg := voyagerConfig(seed, in.stream.Len())
	cfg.Metrics = reg
	simCfg := sim.ScaledConfig()
	// Each stage's clock reads bracket only its module call, so the glue
	// between calls shows as pipeline self time.
	var stages [len(stageNames)][2]time.Time
	stage := func(k int, f func()) {
		stages[k][0] = time.Now()
		f()
		stages[k][1] = time.Now()
	}

	start := time.Now()
	var p *voyager.Predictor
	var err error
	stage(0, func() { p, err = voyager.Train(in.stream, cfg) })
	if err != nil {
		return out, err
	}
	preds := p.Predictions()
	stage(1, func() { out.accuracy = eval.Unified(in.stream, preds, eval.DefaultWindow, cfg.EpochAccesses) })
	stage(2, func() { out.base = sim.Simulate(in.raw, prefetch.Nil{}, simCfg) })
	raw := make([][]uint64, in.raw.Len())
	for j, pr := range preds {
		raw[in.origIdx[j]] = pr
	}
	stage(3, func() {
		out.voy = sim.Simulate(in.raw, &prefetch.Precomputed{Label: "voyager", Predictions: raw}, simCfg)
	})
	n := p.NumAccesses()
	var tab *distill.Table
	stage(4, func() { tab = distill.Compile(p, 0, n/2, distill.DefaultParams()) })
	held := heldOutPositions(n)
	stage(5, func() { out.agreement = distill.Agreement(p, tab, held) })
	pf, err := distilled.New(tab, p.Model.Vocab(), offlineDegree)
	if err != nil {
		return out, err
	}
	stage(6, func() { out.dist = sim.Simulate(in.raw, pf, simCfg) })
	end := time.Now()

	out.wall = end.Sub(start)
	out.train = stages[0][1].Sub(stages[0][0])
	out.trainSamples = p.TrainedSamples()
	out.keys, out.tableBytes = tab.Stats().Keys, tab.Bytes()
	rec.begin("pipeline", group, start)
	for k, name := range stageNames {
		rec.span(name, group, k+1, stages[k][0], stages[k][1])
	}
	rec.end("pipeline", group, end)
	if reg != nil {
		out.steps = reg.Counter("train_steps_total").Value()
		out.predBatches = reg.Counter("predict_batches_total").Value()
		out.fwd = reg.Histogram("train_forward_seconds").Sum()
		out.bwd = reg.Histogram("train_backward_seconds").Sum()
		out.opt = reg.Histogram("train_optimizer_seconds").Sum()
		out.stp = reg.Histogram("train_step_seconds").Sum()
	}
	return out, nil
}

// heldOutPositions strides up to heldOutMax trigger positions evenly over
// the held-out half [n/2, n), as cmd/experiments' distillation study does.
func heldOutPositions(n int) []int {
	lo := n / 2
	stride := max((n-lo)/heldOutMax, 1)
	var out []int
	for i := lo; i < n; i += stride {
		out = append(out, i)
	}
	return out
}

// checkPipeline applies the output checks: every simulation saw the whole
// LLC stream, and no prefetcher had more useful prefetches than it issued.
func checkPipeline(res *result, in offlineInputs, out pipelineOut) {
	for _, r := range []sim.Result{out.base, out.voy, out.dist} {
		res.attempted += 2
		if r.LLCDemandAccesses != uint64(in.stream.Len()) {
			res.fail("%s: %d LLC demand accesses, the LLC stream has %d", r.Prefetcher, r.LLCDemandAccesses, in.stream.Len())
		}
		if r.PrefetchesUseful > r.PrefetchesIssued {
			res.fail("%s: %d useful prefetches of %d issued", r.Prefetcher, r.PrefetchesUseful, r.PrefetchesIssued)
		}
	}
}

// runOffline runs the offline-train workload.
func runOffline(o options) (*result, error) {
	res := newResult()
	if o.traced {
		return runOfflineTraced(o, res)
	}
	setupS := make([]float64, offlineSetups)
	var in offlineInputs
	for i := range setupS {
		var d time.Duration
		var err error
		if in, d, err = setupOffline(o.seed, nil); err != nil {
			return nil, err
		}
		setupS[i] = d.Seconds()
	}

	var wall, rate []float64
	var first pipelineOut
	steal := startSteal()
	start := time.Now()
	for i := 0; i < minPipelines || time.Since(start) < time.Duration(o.seconds)*time.Second; i++ {
		runtime.GC()
		out, err := runPipeline(in, o.seed, nil, 0, nil)
		if err != nil {
			return nil, err
		}
		checkPipeline(res, in, out)
		res.attempted++
		if i == 0 {
			first = out
		} else if out.outputs() != first.outputs() {
			res.fail("pipeline run %d: outputs %v differ from run 0's %v", i, out.outputs(), first.outputs())
		}
		wall = append(wall, out.wall.Seconds())
		rate = append(rate, float64(out.trainSamples)/out.train.Seconds())
	}
	res.steal = steal.stop()
	if err := readPeakRSS(res); err != nil {
		return nil, err
	}

	res.values["setup_s"] = median(setupS)
	res.values["latency_p50_us"] = median(wall) * 1e6
	res.values["throughput_per_s"] = median(rate)
	res.note("setup_s", median(setupS), "s", len(setupS))
	res.note("pipeline_s", median(wall), "s", len(wall))
	res.notes = append(res.notes, fmt.Sprintf("%-24s %.3f s", "pipeline_s each", wall))
	res.note("train_samples_per_s", median(rate), "1/s", len(rate))
	res.note("unified_accuracy", first.accuracy, "ratio", in.stream.Len())
	res.note("ipc_speedup", first.voy.IPC/first.base.IPC, "ratio", 1)
	res.note("distilled_agreement", first.agreement, "ratio", len(heldOutPositions(in.stream.Len())))
	return res, nil
}

// runOfflineTraced makes one untraced and one traced pipeline run, reports
// the stage self times from the trace and times the layers the stages are
// built on directly.
func runOfflineTraced(o options, res *result) (*result, error) {
	tracer := tracing.New(tracing.Options{Path: o.traceOut})
	rec := newSpanRec(tracer, "perfbench", "offline")
	in, _, err := setupOffline(o.seed, rec)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	plain, err := runPipeline(in, o.seed, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	checkPipeline(res, in, plain)
	runtime.GC()
	steal := startSteal()
	mem := startMem()
	traced, err := runPipeline(in, o.seed, rec, 1, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	mem.stop(res, 1)
	res.steal = steal.stop()
	checkPipeline(res, in, traced)
	res.attempted++
	if traced.outputs() != plain.outputs() {
		res.fail("traced pipeline outputs %v differ from untraced %v", traced.outputs(), plain.outputs())
	}
	if err := tracer.Close(); err != nil {
		return nil, err
	}

	groups, err := traceSpans(o.traceOut)
	if err != nil {
		return nil, err
	}
	v := res.values
	for _, g := range groups {
		switch g.parent.name {
		case "setup":
			v["workloads.generate_ms"] = float64(g.children[0].dur()) / 1e6
			v["sim.filter_ms"] = float64(g.children[1].dur()) / 1e6
		case "pipeline":
			cover := float64(g.covered()) / float64(g.parent.dur())
			if cover < 0.95 {
				return nil, fmt.Errorf("reconciliation: stage spans cover %.1f%% of the pipeline, want at least 95%%", 100*cover)
			}
			res.note("stage coverage", cover, "ratio", len(g.children))
			res.note("pipeline self_ms", float64(g.selfTime())/1e6, "ms", 1)
		}
	}
	d := childDurations(groups, "pipeline")
	ms := func(name string) float64 { return medianNs(d[name]) / 1e6 }
	v["voyager.train_s"] = ms("voyager.Train") / 1e3
	v["eval.unified_ms"] = ms("eval.Unified")
	v["distill.compile_ms"] = ms("distill.Compile")
	sims := append(append(append([]int64(nil), d["sim.Simulate/none"]...), d["sim.Simulate/voyager"]...), d["sim.Simulate/distilled"]...)
	v["sim.simulate_ms"] = medianNs(sims) / 1e6
	v["sim.accesses_per_s"] = float64(in.raw.Len()) / (v["sim.simulate_ms"] / 1e3)
	v["eval.unified_accuracy"] = traced.accuracy
	v["sim.ipc_speedup"] = traced.voy.IPC / traced.base.IPC
	v["distill.keys"] = float64(traced.keys)
	v["distill.table_bytes"] = float64(traced.tableBytes)
	v["distill.agreement"] = traced.agreement
	v["voyager.train_steps"] = float64(traced.steps)
	v["voyager.predict_batches"] = float64(traced.predBatches)
	if traced.stp > 0 {
		v["voyager.forward_frac"] = traced.fwd / traced.stp
		v["voyager.backward_frac"] = traced.bwd / traced.stp
		v["voyager.optimizer_frac"] = traced.opt / traced.stp
	}
	v["bench.trace_overhead"] = traced.wall.Seconds() / plain.wall.Seconds()
	res.note("pipeline_s (untraced)", plain.wall.Seconds(), "s", 1)
	res.note("pipeline_s (traced)", traced.wall.Seconds(), "s", 1)

	// Layers inside voyager.Train, timed directly on the same stream.
	cfg := voyagerConfig(o.seed, in.stream.Len())
	v["vocab.build_ms"] = timeMedian(5, func() { vocab.Build(in.stream, cfg.VocabOptions()) }).Seconds() * 1e3
	v["label.compute_ms"] = timeMedian(5, func() { label.Compute(in.stream) }).Seconds() * 1e3
	h, err := voyager.NewBenchHarness(in.stream, cfg)
	if err != nil {
		return nil, err
	}
	h.TrainStep() // first step sizes the tape arena
	step := timeMedian(20, func() { h.TrainStep() })
	pred := timeMedian(20, func() { h.PredictStep() })
	v["voyager.train_step_ms"] = step.Seconds() * 1e3
	v["voyager.predict_step_ms"] = pred.Seconds() * 1e3
	voc := vocab.Build(in.stream, cfg.VocabOptions())
	rows := float64(h.BatchRows())
	pageCols := voc.PageTokens()
	if cfg.NegSamples > 0 && pageCols > 2*cfg.NegSamples {
		pageCols = cfg.NegSamples + h.BatchRows() // sampled negatives plus about one positive a row
	}
	// Backward costs about twice the forward pass.
	trainFLOPs := 3 * (float64(cfg.SeqLen)*stepFLOPs(cfg) + headFLOPs(cfg, pageCols))
	v["tensor.train_gflops"] = trainFLOPs * rows / step.Seconds() / 1e9
	return res, nil
}
