// Command voyager trains the Voyager model on a benchmark (or trace file)
// with the paper's online protocol and reports unified accuracy/coverage,
// per-epoch losses, and the model's size.
//
// Usage:
//
//	go run ./cmd/voyager -bench soplex
//	go run ./cmd/voyager -bench pr -hidden 64 -passes 4 -degree 4
//	go run ./cmd/voyager -trace pr.vygr -schemes pc -no-deltas
//	go run ./cmd/voyager -bench cc -distill cc.vydt -distilled-predict
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"voyager/internal/distill"
	"voyager/internal/eval"
	"voyager/internal/label"
	"voyager/internal/metrics"
	"voyager/internal/prefetch/distilled"
	"voyager/internal/sim"
	"voyager/internal/trace"
	"voyager/internal/tracing"
	"voyager/internal/voyager"
	"voyager/internal/workloads"
)

func parseSchemes(s string) ([]label.Scheme, error) {
	if s == "" || s == "all" {
		return label.AllSchemes(), nil
	}
	var out []label.Scheme
	for _, name := range strings.Split(s, ",") {
		found := false
		for _, sc := range label.AllSchemes() {
			if sc.String() == name {
				out = append(out, sc)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown labeling scheme %q", name)
		}
	}
	return out, nil
}

// heldOutHalf samples up to 2048 evenly-strided trigger positions from the
// second (non-calibration) half of the trace.
func heldOutHalf(n int) []int {
	lo := n / 2
	stride := (n - lo) / 2048
	if stride < 1 {
		stride = 1
	}
	var out []int
	for i := lo; i < n; i += stride {
		out = append(out, i)
	}
	return out
}

func main() {
	var (
		bench     = flag.String("bench", "", "benchmark name (generates a trace)")
		traceFile = flag.String("trace", "", "binary trace file")
		n         = flag.Int("n", 24_000, "max accesses when generating")
		seed      = flag.Int64("seed", 42, "randomness seed")
		hidden    = flag.Int("hidden", 64, "LSTM units")
		passes    = flag.Int("passes", 4, "training passes per epoch")
		epoch     = flag.Int("epoch", 6_000, "epoch length in accesses")
		degree    = flag.Int("degree", 1, "prefetch degree")
		schemes   = flag.String("schemes", "all", "labeling schemes (comma list: global,pc,basic-block,spatial,co-occurrence)")
		noDeltas  = flag.Bool("no-deltas", false, "disable the delta vocabulary (Voyager w/o delta)")
		noPC      = flag.Bool("no-pc", false, "drop the PC-history feature")
		window    = flag.Int("window", eval.DefaultWindow, "unified-metric window")
		saveFile  = flag.String("save", "", "write trained weights to this file")
		distOut   = flag.String("distill", "", "compile the trained model into a distilled lookup table (calibrated on the first half) and save it to this file")
		distPred  = flag.Bool("distilled-predict", false, "also replay the distilled table online: unified metric, fallback-tier shares, and a simulator run")

		metricsOut  = flag.String("metrics", "", "stream NDJSON metric snapshots to this file")
		metricsHTTP = flag.String("metrics-http", "", "serve /metrics, /trace and /debug/pprof on this address (e.g. localhost:6060)")
		manifest    = flag.String("manifest", "", "write a run-manifest JSON (config, seed, git ref, final metrics) to this file")

		// -trace is the *input* memory-access trace (internal/trace);
		// -trace-out is the *output* execution-span timeline (internal/tracing).
		traceOut   = flag.String("trace-out", "", "write Chrome trace-event JSON (execution spans; open in Perfetto) to this file")
		traceClock = flag.String("trace-clock", "wall", "span timestamps: wall | logical (logical exports are byte-identical across same-seed runs)")
		provOut    = flag.String("provenance", "", "write the per-label-scheme prefetch provenance table (JSON) to this file")
	)
	flag.Parse()
	if *traceClock != "wall" && *traceClock != "logical" {
		fmt.Fprintf(os.Stderr, "voyager: -trace-clock must be wall or logical, got %q\n", *traceClock)
		os.Exit(2)
	}

	var tr *trace.Trace
	var err error
	switch {
	case *traceFile != "":
		f, ferr := os.Open(*traceFile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "voyager:", ferr)
			os.Exit(1)
		}
		tr, err = trace.Read(f)
		_ = f.Close() // read-side close: the trace is already in memory
	case *bench != "":
		tr, err = workloads.Generate(*bench, workloads.Config{Seed: *seed, Scale: 1, MaxAccesses: *n})
	default:
		err = fmt.Errorf("one of -bench or -trace is required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "voyager:", err)
		os.Exit(2)
	}

	cfg := voyager.ScaledConfig()
	cfg.Seed = *seed
	cfg.Hidden = *hidden
	cfg.PassesPerEpoch = *passes
	cfg.EpochAccesses = *epoch
	cfg.Degree = *degree
	cfg.UseDeltas = !*noDeltas
	cfg.DropoutKeep = 1
	if *noPC {
		cfg.PCUse = voyager.PCNone
	}
	cfg.Schemes, err = parseSchemes(*schemes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "voyager:", err)
		os.Exit(2)
	}

	var tracer *tracing.Tracer
	if *traceOut != "" {
		tracer = tracing.New(tracing.Options{
			Path:       *traceOut,
			Logical:    *traceClock == "logical",
			FlushEvery: 2 * time.Second,
		})
	}
	var provSet *tracing.ProvenanceSet
	var prov *tracing.DecisionLog
	if *provOut != "" {
		provSet = tracing.NewProvenanceSet()
		prov = provSet.NewLog(tr.Name + "/voyager")
	}

	sink, err := metrics.Start(metrics.SinkOptions{
		Tool:         "voyager",
		Config:       cfg,
		Seed:         *seed,
		StreamPath:   *metricsOut,
		HTTPAddr:     *metricsHTTP,
		ManifestPath: *manifest,
		Handlers:     map[string]http.Handler{"/trace": tracer.Handler()},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "voyager: metrics:", err)
		os.Exit(1)
	}
	cfg.Metrics = sink.Registry()
	cfg.Trace = tracer
	cfg.Provenance = prov
	if addr := sink.HTTPAddr(); addr != "" {
		fmt.Printf("metrics: http://%s/metrics (trace at /trace, pprof at /debug/pprof/)\n", addr)
	}

	fmt.Println(trace.ComputeStats(tr))
	start := time.Now()
	p, err := voyager.Train(tr, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "voyager:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	evalSp := tracer.Track("eval", "main").Begin("unified")
	u := eval.Unified(tr, p.Predictions(), *window, cfg.EpochAccesses)
	evalSp.End()
	eval.RecordUnified(sink.Registry(), tr.Name, "voyager", u)
	eval.MarkProvenance(tr, *window, cfg.EpochAccesses, prov)
	fmt.Printf("trained %d samples in %v (%d params, %d bytes fp32)\n",
		p.TrainedSamples(), elapsed.Round(time.Millisecond),
		p.Model.Params().Count(), p.Model.Params().Bytes(32))
	fmt.Printf("epoch losses: ")
	for _, l := range p.EpochLosses() {
		fmt.Printf("%.4f ", l)
	}
	fmt.Println()
	fmt.Printf("unified accuracy/coverage (window %d): %.3f\n", *window, u)
	fmt.Printf("vocabulary: %s\n", p.Model.Vocab())

	// With tracing or provenance requested, also run the cache simulator so
	// every decision resolves to its simulated fate (useful/late/evicted/
	// resident) and the timeline gains the cache-level rows. Training ran on
	// the raw trace, so prediction indices already match the simulator's
	// trigger indices.
	if tracer != nil || prov != nil {
		machine := sim.NewMachine(sim.ScaledConfig())
		machine.Instrument(sink.Registry())
		machine.Trace(tracer, "sim/voyager")
		machine.Provenance(prov)
		res := machine.Run(tr, p.AsPrefetcher())
		fmt.Println(res)
	}

	// Distillation: compile the teacher's top-k distributions into the O(1)
	// lookup table (calibrated on the first half of the trace so the
	// agreement number below is held-out, not memorized).
	if *distOut != "" || *distPred {
		sp := tracer.Track("distill", "main").Begin("compile")
		tab := distill.Compile(p, 0, p.NumAccesses()/2, distill.DefaultParams())
		sp.End()
		fmt.Printf("distilled: %s\n", tab)
		fmt.Printf("distilled held-out top-1 agreement vs teacher: %.3f\n",
			distill.Agreement(p, tab, heldOutHalf(p.NumAccesses())))
		if *distOut != "" {
			if err := tab.Save(*distOut); err != nil {
				fmt.Fprintln(os.Stderr, "voyager: distill:", err)
				os.Exit(1)
			}
			fmt.Printf("distilled table written to %s (%d bytes)\n", *distOut, tab.Bytes())
		}
		if *distPred {
			pf, err := distilled.New(tab, p.Model.Vocab(), cfg.Degree)
			if err != nil {
				fmt.Fprintln(os.Stderr, "voyager: distill:", err)
				os.Exit(1)
			}
			preds := eval.CollectPredictions(tr, pf)
			du := eval.Unified(tr, preds, *window, cfg.EpochAccesses)
			eval.RecordUnified(sink.Registry(), tr.Name, "distilled", du)
			fmt.Printf("distilled unified accuracy/coverage (window %d): %.3f\n", *window, du)
			tiers := pf.TierCounts()
			total := 0
			for _, c := range tiers {
				total += c
			}
			if total > 0 {
				fmt.Printf("distilled fallback tiers:")
				for t, c := range tiers {
					fmt.Printf(" %s %.1f%%", distill.Tier(t), 100*float64(c)/float64(total))
				}
				fmt.Println()
			}
			pf.Reset()
			var dprov *tracing.DecisionLog
			if provSet != nil {
				dprov = provSet.NewLog(tr.Name + "/distilled")
			}
			machine := sim.NewMachine(sim.ScaledConfig())
			machine.Instrument(sink.Registry())
			machine.Trace(tracer, "sim/distilled")
			machine.Provenance(dprov)
			res := machine.Run(tr, pf)
			fmt.Println(res)
		}
	}
	if prov != nil {
		fmt.Println(prov.BuildTable(label.SchemeNames()))
		if err := provSet.WriteFile(*provOut, label.SchemeNames()); err != nil {
			fmt.Fprintln(os.Stderr, "voyager: provenance:", err)
			os.Exit(1)
		}
		fmt.Printf("provenance written to %s\n", *provOut)
	}

	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "voyager:", err)
			os.Exit(1)
		}
		if err := p.SaveWeights(f); err != nil {
			fmt.Fprintln(os.Stderr, "voyager:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "voyager:", err)
			os.Exit(1)
		}
		fmt.Printf("weights saved to %s\n", *saveFile)
	}

	if err := tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "voyager: tracing:", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		fmt.Printf("trace written to %s (open in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "voyager: metrics:", err)
		os.Exit(1)
	}
}
