// Command prefetchd is the long-running prefetch-as-a-service daemon: it
// loads (or trains) a Voyager model — and optionally a distilled .vydt
// table as the low-latency fast tier — then serves predictions to many
// concurrent trace streams over the length-prefixed TCP protocol in
// internal/serve, with batched model inference, idle-session eviction,
// /metrics SLO histograms, and graceful drain on SIGINT/SIGTERM.
//
// The same binary is the load generator: -replay connects N concurrent
// client streams to a running daemon and reports client-side round-trip
// latency percentiles.
//
// Usage:
//
//	go run ./cmd/voyager  -bench cc -n 24000 -save cc.w -distill cc.vydt
//	go run ./cmd/prefetchd -bench cc -n 24000 -weights cc.w -table cc.vydt -listen :7011
//	go run ./cmd/prefetchd -replay localhost:7011 -bench cc -n 24000 -streams 8 -fast
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"voyager/internal/distill"
	"voyager/internal/metrics"
	"voyager/internal/serve"
	"voyager/internal/serve/quality"
	"voyager/internal/trace"
	"voyager/internal/tracing"
	"voyager/internal/vocab"
	"voyager/internal/voyager"
	"voyager/internal/workloads"
)

func main() {
	var (
		bench     = flag.String("bench", "", "benchmark name (generates the trace the vocabulary/model are built from)")
		traceFile = flag.String("trace", "", "binary trace file instead of -bench")
		n         = flag.Int("n", 24_000, "max accesses when generating")
		seed      = flag.Int64("seed", 42, "randomness seed (must match the training run when loading weights)")
		hidden    = flag.Int("hidden", 64, "LSTM units (must match when loading weights)")
		degree    = flag.Int("degree", 1, "prefetch degree")
		noDeltas  = flag.Bool("no-deltas", false, "disable the delta vocabulary (must match when loading weights)")
		passes    = flag.Int("passes", 4, "training passes per epoch (in-process training only)")
		epoch     = flag.Int("epoch", 6_000, "epoch length in accesses (in-process training only)")
		weights   = flag.String("weights", "", "load trained weights (from voyager -save) instead of training in-process")
		tableFile = flag.String("table", "", "distilled .vydt table for the fast tier (from voyager -distill)")

		listen    = flag.String("listen", "localhost:7011", "TCP listen address")
		maxBatch  = flag.Int("max-batch", 32, "max rows coalesced into one PredictBatch call")
		idleEvict = flag.Duration("idle-evict", 2*time.Minute, "evict sessions idle this long (0 = never)")

		metricsHTTP = flag.String("metrics-http", "", "serve /metrics and /debug/pprof on this address")
		metricsOut  = flag.String("metrics", "", "stream NDJSON metric snapshots to this file")
		traceOut    = flag.String("trace-out", "", "write Chrome trace-event JSON of the request lifecycle to this file on shutdown (replay mode: client-side spans, linkable to the server trace via tracecheck -merge)")

		qualityOn   = flag.Bool("quality", false, "online quality telemetry: score every prediction against the next demand accesses (server: /quality endpoint; replay: scoreboard on exit)")
		shadowEvery = flag.Int("shadow-every", 0, "re-run 1-in-N fast-tier requests through the model off the latency path and track agreement (0 = off; needs -quality)")
		windowEvery = flag.Int("quality-window", 0, "rotate the rolling quality windows every N settled outcomes (0 = default)")

		replay  = flag.String("replay", "", "client mode: replay the trace against a daemon at this address")
		streams = flag.Int("streams", 4, "concurrent client streams (replay mode)")
		fast    = flag.Bool("fast", false, "request the distilled fast tier (replay mode)")
		perStr  = flag.Int("per-stream", 0, "accesses each stream replays (0 = whole trace)")
	)
	flag.Parse()

	tr, err := loadTrace(*traceFile, *bench, *seed, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prefetchd:", err)
		os.Exit(2)
	}

	if *replay != "" {
		err := runReplay(replayOptions{
			addr: *replay, streams: *streams, perStream: *perStr, fast: *fast,
			quality: *qualityOn, windowEvery: *windowEvery, traceOut: *traceOut,
		}, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prefetchd:", err)
			os.Exit(1)
		}
		return
	}

	cfg := voyager.ScaledConfig()
	cfg.Seed = *seed
	cfg.Hidden = *hidden
	cfg.Degree = *degree
	cfg.UseDeltas = !*noDeltas
	cfg.DropoutKeep = 1
	cfg.PassesPerEpoch = *passes
	cfg.EpochAccesses = *epoch

	var tracer *tracing.Tracer
	if *traceOut != "" {
		tracer = tracing.New(tracing.Options{Path: *traceOut})
	}

	// The quality tracker registers its rolling instruments in the sink
	// registry (so /metrics carries the raw counters) while /quality serves
	// the assembled scoreboard. The registry only exists after metrics.Start,
	// so /quality reads the tracker through an atomic pointer; until it is
	// stored — or always, when -quality is off — the nil tracker's Handler
	// answers 404 with a hint.
	var trackerPtr atomic.Pointer[quality.Tracker]

	sink, err := metrics.Start(metrics.SinkOptions{
		Tool:       "prefetchd",
		Config:     cfg,
		Seed:       *seed,
		StreamPath: *metricsOut,
		HTTPAddr:   *metricsHTTP,
		Handlers: map[string]http.Handler{
			"/trace": tracer.Handler(),
			"/quality": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				trackerPtr.Load().Handler().ServeHTTP(w, r)
			}),
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "prefetchd: metrics:", err)
		os.Exit(1)
	}
	cfg.Metrics = sink.Registry()
	var tracker *quality.Tracker
	if *qualityOn {
		qreg := sink.Registry()
		if qreg == nil {
			// No sink configured: the tracker still needs live instruments
			// for the drain scoreboard, just nobody else reads them.
			qreg = metrics.NewRegistry()
		}
		tracker = quality.New(quality.Config{
			ShadowEvery: *shadowEvery,
			WindowEvery: *windowEvery,
			Metrics:     qreg,
		})
		trackerPtr.Store(tracker)
	} else if *shadowEvery > 0 {
		fmt.Fprintln(os.Stderr, "prefetchd: -shadow-every needs -quality")
		os.Exit(2)
	}
	if addr := sink.HTTPAddr(); addr != "" {
		fmt.Printf("metrics: http://%s/metrics (trace at /trace, quality at /quality, pprof at /debug/pprof/)\n", addr)
	}

	model, err := buildModel(tr, cfg, *weights)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prefetchd:", err)
		os.Exit(1)
	}

	var tab *distill.Table
	if *tableFile != "" {
		tab, err = distill.LoadFile(*tableFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prefetchd:", err)
			os.Exit(1)
		}
		fmt.Printf("fast tier: %s\n", tab)
	}

	srv, err := serve.New(serve.Config{
		Model:       model,
		Table:       tab,
		Degree:      *degree,
		MaxBatch:    *maxBatch,
		IdleTimeout: *idleEvict,
		Metrics:     sink.Registry(),
		Tracer:      tracer,
		Quality:     tracker,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "prefetchd:", err)
		os.Exit(1)
	}
	if err := srv.Start(*listen); err != nil {
		fmt.Fprintln(os.Stderr, "prefetchd:", err)
		os.Exit(1)
	}
	fmt.Printf("prefetchd: serving on %s (max-batch %d, degree %d)\n",
		srv.Addr(), *maxBatch, *degree)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigs
	fmt.Printf("prefetchd: %v — draining\n", sig)
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "prefetchd: close:", err)
	}
	if tracker != nil {
		fmt.Println(tracker.Report())
	}
	if err := tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "prefetchd: tracing:", err)
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "prefetchd: metrics:", err)
	}
}

// loadTrace reads or generates the access trace both modes replay.
func loadTrace(traceFile, bench string, seed int64, n int) (*trace.Trace, error) {
	switch {
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		tr, err := trace.Read(f)
		_ = f.Close() // read-side close: the trace is already in memory
		return tr, err
	case bench != "":
		return workloads.Generate(bench, workloads.Config{Seed: seed, Scale: 1, MaxAccesses: n})
	default:
		return nil, fmt.Errorf("one of -bench or -trace is required")
	}
}

// buildModel loads saved weights into a fresh model (vocabulary rebuilt
// deterministically from the trace) or trains in-process when no weights
// file was given.
func buildModel(tr *trace.Trace, cfg voyager.Config, weights string) (*voyager.Model, error) {
	if weights == "" {
		fmt.Println("prefetchd: no -weights given; training in-process")
		start := time.Now()
		p, err := voyager.Train(tr, cfg)
		if err != nil {
			return nil, err
		}
		fmt.Printf("prefetchd: trained %d samples in %v\n",
			p.TrainedSamples(), time.Since(start).Round(time.Millisecond))
		return p.Model, nil
	}
	voc := vocab.Build(tr, cfg.VocabOptions())
	m := voyager.NewModel(cfg, voc)
	f, err := os.Open(weights)
	if err != nil {
		return nil, err
	}
	loadErr := m.LoadWeights(f)
	_ = f.Close() // read-side close: weights already deserialized
	if loadErr != nil {
		return nil, fmt.Errorf("load %s: %w (config/trace must match the training run)", weights, loadErr)
	}
	fmt.Printf("prefetchd: loaded weights from %s (%s)\n", weights, voc)
	return m, nil
}

// replayOptions collects the client-mode knobs.
type replayOptions struct {
	addr        string
	streams     int
	perStream   int
	fast        bool
	quality     bool   // score responses client-side, print the scoreboard
	windowEvery int    // quality window rotation period (0 = default)
	traceOut    string // write client-side rpc spans here (trace context on the wire)
}

// runReplay drives a running daemon with concurrent client streams and
// reports client-side round-trip latency. With -quality it scores every
// response against the stream's own upcoming accesses — the client knows
// its future, so this is the ground-truth scoreboard for the replayed
// trace. With -trace-out each request carries a trace context and is
// wrapped in a client-side async span; tracecheck -merge folds the export
// and the server's -trace-out into one cross-process timeline.
func runReplay(o replayOptions, tr *trace.Trace) error {
	if o.streams < 1 {
		o.streams = 1
	}
	nAcc := len(tr.Accesses)
	if o.perStream <= 0 || o.perStream > nAcc {
		o.perStream = nAcc
	}
	tier := "model"
	if o.fast {
		tier = "fast"
	}
	fmt.Printf("replaying %d accesses x %d streams against %s (%s tier)\n", o.perStream, o.streams, o.addr, tier)

	var tracker *quality.Tracker
	if o.quality {
		tracker = quality.New(quality.Config{
			WindowEvery: o.windowEvery,
			Metrics:     metrics.NewRegistry(),
		})
	}
	var tracer *tracing.Tracer
	if o.traceOut != "" {
		tracer = tracing.New(tracing.Options{Path: o.traceOut})
	}

	lats := make([][]int64, o.streams)
	errs := make([]error, o.streams)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < o.streams; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := serve.Dial(o.addr)
			if err != nil {
				errs[id] = err
				return
			}
			defer func() { _ = cl.Close() }()
			qs := tracker.NewSession()
			var rpcTk *tracing.Track
			if tracer != nil {
				rpcTk = tracer.Track("rpc", fmt.Sprintf("stream-%d", id))
			}
			lat := make([]int64, 0, o.perStream)
			for j := 0; j < o.perStream; j++ {
				a := tr.Accesses[j]
				var r *serve.Response
				var err error
				t0 := time.Now()
				if rpcTk != nil {
					// Span ids are unique per request across the whole
					// replay; the server stamps its marks with the same id.
					spanID := uint64(id)<<32 | uint64(j+1)
					rpcTk.AsyncBegin("predict", spanID)
					r, err = cl.PredictTraced(uint64(id), a.PC, a.Addr, o.fast, uint64(id)+1, spanID)
					rpcTk.AsyncEnd("predict", spanID)
				} else {
					r, err = cl.Predict(uint64(id), a.PC, a.Addr, o.fast)
				}
				if err != nil {
					errs[id] = err
					return
				}
				lat = append(lat, time.Since(t0).Nanoseconds())
				scoreReply(qs, a.Addr, r)
			}
			lats[id] = lat
			qs.Close()
			errs[id] = cl.CloseStream(uint64(id))
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []int64
	for i, l := range lats {
		if errs[i] != nil {
			return fmt.Errorf("stream %d: %w", i, errs[i])
		}
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p*float64(len(all))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(all) {
			i = len(all) - 1
		}
		return time.Duration(all[i])
	}
	fmt.Printf("%d requests in %v (%.0f req/s)\n",
		len(all), elapsed.Round(time.Millisecond), float64(len(all))/elapsed.Seconds())
	fmt.Printf("round-trip latency: p50 %v  p90 %v  p99 %v  max %v\n",
		q(0.50), q(0.90), q(0.99), q(1.0))
	if tracker != nil {
		fmt.Println(tracker.Report())
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return fmt.Errorf("tracing: %w", err)
		}
		fmt.Printf("client trace: %s (merge with the server's via tracecheck -merge)\n", o.traceOut)
	}
	return nil
}

// scoreReply feeds one response into the client-side quality session: the
// accessed cache line plus the candidate lines the server predicted.
// No-op when scoring is off (nil session).
func scoreReply(qs *quality.Session, addr uint64, r *serve.Response) {
	if qs == nil {
		return
	}
	lines := make([]uint64, 0, len(r.Cands))
	for _, c := range r.Cands {
		if c.Addr != 0 {
			lines = append(lines, c.Addr>>trace.LineBits)
		}
	}
	tier := quality.TierModel
	if r.Tier == serve.TierFast {
		tier = quality.TierFast
	}
	qs.Score(addr>>trace.LineBits, lines, tier)
}
