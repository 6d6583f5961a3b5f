package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"voyager/internal/distill"
	"voyager/internal/metrics"
	"voyager/internal/serve"
	"voyager/internal/serve/quality"
	"voyager/internal/trace"
	"voyager/internal/voyager"
)

// Serving-path benchmark: an in-process prefetchd on a loopback listener
// under the acceptance load shape — 64 concurrent client streams replaying
// the bench trace.
//
// Two phases. The fast phase drives every stream through the distilled
// tier and reads the exact per-request prediction-path latency samples
// (session advance through candidates ready — the serving analogue of
// predict_distilled, which likewise excludes any wire handling) from the
// server's LatencyRecorder; serve_p99_ns is their nearest-rank p99. The
// model phase drives the batched LSTM tier and reports the exact mean
// PredictBatch occupancy (rows/batches from integer counters) as
// serve_batch_fill — under 64 synchronous streams the queue refills while
// inference runs, so healthy batching keeps this near MaxBatch.
// A third phase re-runs the fast load on a second server with online
// quality self-scoring enabled and records the same prediction-path p99.
// Scoring runs strictly after the latency record, so the ratio of the two
// p99s — serve_quality_overhead — measures only the indirect cost
// telemetry is allowed to have (scorer lock traffic, window-instrument
// atomics, cache pressure) and gates the off-the-latency-path design
// claim at < 1.05x in verify.sh. Shadow sampling is deliberately off in
// the gated phase: shadow re-inference is real extra model work whose CPU
// cost is proportional to the operator's 1-in-N knob by design (measured
// at 1.35x fast p99 for 1-in-8 on this container's 2 cores), so folding
// it into the gate would measure the knob, not a leak. Shadow
// correctness and its never-blocks-a-handler property are pinned by the
// serve e2e suite instead.
const (
	serveBenchStreams   = 64
	serveBenchFastReqs  = 1200 // fast-tier requests per stream
	serveBenchModelReqs = 30   // model-tier requests per stream
	serveBenchMaxBatch  = 64
)

type serveBenchResult struct {
	fastP50Ns    int64
	fastP99Ns    int64
	modelP99Ns   int64
	batchFill    float64
	fastReqs     int64
	qualityP99Ns int64 // fast-tier p99 with the quality tracker live
}

// serveBench runs both phases against the given trained model and table
// (the distill block's teacher, reused so serving latency is measured on
// the same weights the distilled numbers come from).
func serveBench(m *voyager.Model, tab *distill.Table, tr *trace.Trace) (serveBenchResult, error) {
	var res serveBenchResult
	fastRec := serve.NewLatencyRecorder(serveBenchStreams * serveBenchFastReqs)
	modelRec := serve.NewLatencyRecorder(serveBenchStreams * serveBenchModelReqs)
	reg := metrics.NewRegistry()
	srv, err := serve.New(serve.Config{
		Model:        m,
		Table:        tab,
		Degree:       1,
		MaxBatch:     serveBenchMaxBatch,
		Metrics:      reg,
		FastLatency:  fastRec,
		ModelLatency: modelRec,
	})
	if err != nil {
		return res, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return res, err
	}
	defer func() { _ = srv.Close() }()
	addr := srv.Addr().String()

	// Settle the heap before the latency-sensitive phase: the fast path
	// itself is allocation-free, so a pre-phase collection keeps background
	// GC assists out of the sampled window.
	runtime.GC()
	if err := replayPhase(addr, tr, serveBenchFastReqs, true); err != nil {
		return res, fmt.Errorf("serve bench fast phase: %w", err)
	}
	if err := replayPhase(addr, tr, serveBenchModelReqs, false); err != nil {
		return res, fmt.Errorf("serve bench model phase: %w", err)
	}
	if err := srv.Close(); err != nil {
		return res, err
	}

	res.fastP50Ns = fastRec.Quantile(0.50)
	res.fastP99Ns = fastRec.Quantile(0.99)
	res.modelP99Ns = modelRec.Quantile(0.99)
	res.fastReqs = fastRec.Count()
	batches := reg.Counter("serve_batches_total").Value()
	rows := reg.Counter("serve_batch_rows_total").Value()
	if batches > 0 {
		res.batchFill = float64(rows) / float64(batches)
	}

	// Quality phase: the same fast-tier load against a fresh server (same
	// weights and table — the first one is fully closed, so only one
	// server's batchers use the model at a time) with online self-scoring
	// enabled.
	qualRec := serve.NewLatencyRecorder(serveBenchStreams * serveBenchFastReqs)
	qreg := metrics.NewRegistry()
	qsrv, err := serve.New(serve.Config{
		Model:       m,
		Table:       tab,
		Degree:      1,
		MaxBatch:    serveBenchMaxBatch,
		Metrics:     qreg,
		FastLatency: qualRec,
		Quality:     quality.New(quality.Config{Metrics: qreg}),
	})
	if err != nil {
		return res, err
	}
	if err := qsrv.Start("127.0.0.1:0"); err != nil {
		return res, err
	}
	defer func() { _ = qsrv.Close() }()
	runtime.GC()
	if err := replayPhase(qsrv.Addr().String(), tr, serveBenchFastReqs, true); err != nil {
		return res, fmt.Errorf("serve bench quality phase: %w", err)
	}
	if err := qsrv.Close(); err != nil {
		return res, err
	}
	res.qualityP99Ns = qualRec.Quantile(0.99)
	return res, nil
}

// replayPhase drives serveBenchStreams concurrent client streams, each
// replaying perStream accesses of tr on one tier.
func replayPhase(addr string, tr *trace.Trace, perStream int, fast bool) error {
	if perStream > len(tr.Accesses) {
		perStream = len(tr.Accesses)
	}
	errs := make([]error, serveBenchStreams)
	var wg sync.WaitGroup
	for i := 0; i < serveBenchStreams; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := serve.Dial(addr)
			if err != nil {
				errs[id] = err
				return
			}
			defer func() { _ = cl.Close() }()
			// Phases share stream ids on purpose: the model phase continues
			// warm sessions, like a tier switch in production.
			for j := 0; j < perStream; j++ {
				a := tr.Accesses[j]
				if _, err := cl.Predict(uint64(id), a.PC, a.Addr, fast); err != nil {
					errs[id] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
