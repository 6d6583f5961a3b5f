// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	go run ./cmd/experiments -run all
//	go run ./cmd/experiments -run table2,fig7 -accesses 24000 -hidden 64
//	go run ./cmd/experiments -run fig15 -benchmarks pr,soplex
//
// Artifact ids: table1 table2 table3 fig5 fig6 fig7 fig8 fig9 fig10 fig11
// fig12 fig15 fig17 delta distill. "fig10" and "fig11" run together, as do
// fig5/fig6/fig8 (one simulator sweep feeds all three). "distill" is the
// tabularization differential harness: table size vs top-1 agreement with
// the trained model vs ns/prediction.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"voyager/internal/experiments"
	"voyager/internal/label"
	"voyager/internal/metrics"
	"voyager/internal/tracing"
)

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated artifact ids or 'all'")
		accesses = flag.Int("accesses", 48_000, "raw trace length per benchmark")
		epochs   = flag.Int("epochs", 4, "online-protocol epochs per stream")
		hidden   = flag.Int("hidden", 64, "voyager/delta-lstm LSTM units")
		passes   = flag.Int("passes", 4, "training passes per epoch")
		window   = flag.Int("window", 10, "unified-metric window")
		seed     = flag.Int64("seed", 42, "randomness seed")
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: per-figure lists)")
		workers  = flag.Int("workers", 0, "voyager data-parallel width (0/1 serial, -1 auto)")
		quiet    = flag.Bool("q", false, "suppress progress output")

		metricsOut  = flag.String("metrics", "", "stream NDJSON metric snapshots to this file")
		metricsHTTP = flag.String("metrics-http", "", "serve /metrics, /trace and /debug/pprof on this address (e.g. localhost:6060)")
		manifest    = flag.String("manifest", "", "write a run-manifest JSON (config, seed, git ref, final metrics) to this file")

		traceOut   = flag.String("trace-out", "", "write Chrome trace-event JSON (execution spans; open in Perfetto) to this file")
		traceClock = flag.String("trace-clock", "wall", "span timestamps: wall | logical (logical exports are byte-identical across same-seed runs)")
		provOut    = flag.String("provenance", "", "write per-benchmark Voyager provenance tables (JSON) to this file")
	)
	flag.Parse()
	if *traceClock != "wall" && *traceClock != "logical" {
		fmt.Fprintf(os.Stderr, "experiments: -trace-clock must be wall or logical, got %q\n", *traceClock)
		os.Exit(2)
	}

	if *workers < -1 {
		fmt.Fprintf(os.Stderr, "invalid -workers %d (0 or 1 serial, -1 auto, N>1 parallel)\n", *workers)
		os.Exit(2)
	}
	opts := experiments.DefaultOptions()
	opts.Accesses = *accesses
	opts.Epochs = *epochs
	opts.Hidden = *hidden
	opts.Passes = *passes
	opts.Window = *window
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Quiet = *quiet
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
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
	if *provOut != "" {
		provSet = tracing.NewProvenanceSet()
	}
	opts.Trace = tracer
	opts.Provenance = provSet

	sink, err := metrics.Start(metrics.SinkOptions{
		Tool:         "experiments",
		Config:       opts,
		Seed:         *seed,
		StreamPath:   *metricsOut,
		HTTPAddr:     *metricsHTTP,
		ManifestPath: *manifest,
		Handlers:     map[string]http.Handler{"/trace": tracer.Handler()},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: metrics: %v\n", err)
		os.Exit(1)
	}
	opts.Metrics = sink.Registry()
	if addr := sink.HTTPAddr(); addr != "" {
		fmt.Printf("metrics: http://%s/metrics (trace at /trace, pprof at /debug/pprof/)\n", addr)
	}
	r := experiments.NewRun(opts)

	ids := strings.Split(*run, ",")
	if *run == "all" {
		ids = []string{"table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8",
			"fig9", "fig10", "fig12", "fig15", "fig17", "delta", "distill"}
	}
	start := time.Now()
	for _, id := range ids {
		switch strings.TrimSpace(id) {
		case "table1":
			fmt.Println(r.Table1())
		case "table2":
			fmt.Println(r.Table2())
		case "table3":
			fmt.Println(experiments.Table3())
		case "fig5":
			fmt.Println(r.Main().Figure5())
		case "fig6":
			fmt.Println(r.Main().Figure6())
		case "fig8":
			fmt.Println(r.Main().Figure8())
		case "fig7":
			fmt.Println(r.Figure7())
		case "fig9":
			fmt.Println(r.Figure9())
		case "fig10", "fig11":
			fmt.Println(r.Figure1011())
		case "fig12":
			fmt.Println(r.Figure12())
		case "fig15":
			fmt.Println(r.Figure15())
		case "fig17":
			fmt.Println(r.Figure17())
		case "delta":
			fmt.Println(r.DeltaStudy())
		case "distill":
			fmt.Println(r.DistillStudy())
		default:
			fmt.Fprintf(os.Stderr, "unknown artifact %q\n", id)
			os.Exit(2)
		}
	}
	if !*quiet {
		fmt.Printf("done in %v\n", time.Since(start).Round(time.Second))
	}
	if provSet != nil {
		fmt.Println(provSet.Report(label.SchemeNames()))
		if err := provSet.WriteFile(*provOut, label.SchemeNames()); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: provenance: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("provenance written to %s\n", *provOut)
	}
	if err := tracer.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: tracing: %v\n", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		fmt.Printf("trace written to %s (open in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: metrics: %v\n", err)
		os.Exit(1)
	}
}
