package serve

import (
	"sync"
	"testing"

	"voyager/internal/metrics"
	"voyager/internal/pairgate"
	"voyager/internal/serve/quality"
)

// gateStreams is how many client streams drive the fast tier at once in
// one side of the quality gate, each replaying the fixture trace.
const gateStreams = 8

// BenchmarkGateQualityOverhead is the paired gate on quality telemetry:
// the fast tier's prediction-path p99 (Config.FastLatency) with
// Config.Quality set against one without, one server run a side in each
// of pairgate.Pairs pairs. It
// fails when the telemetry side's p99 exceeds 1.05× in nine tenths of the
// pairs, which catches scoring or the shadow-sample decision moved onto
// the measured path. Shadow sampling is off: a shadow pass is model work
// whose cost follows the operator's 1-in-N setting by design. Each side
// runs its own server on the fixture, one at a time. It is a check, run
// once by scripts/verify.sh with -benchtime 1x.
func BenchmarkGateQualityOverhead(b *testing.B) {
	b.ReportAllocs()
	fixture(b)
	off := func() float64 { return fastP99(b, false) }
	on := func() float64 { return fastP99(b, true) }
	pairgate.Run(b, 1.05, 1, off, on)
}

// fastP99 starts a server on the fixture, with a quality tracker on its
// registry when withQuality is set, replays the fixture trace on the fast
// tier from gateStreams concurrent streams, closes the server and returns
// the prediction-path p99 in nanoseconds.
func fastP99(b *testing.B, withQuality bool) float64 {
	b.Helper()
	cfg := Config{Model: fx.p.Model, Table: fx.tab, Metrics: metrics.NewRegistry(),
		FastLatency: NewLatencyRecorder(gateStreams * len(fx.tr.Accesses))}
	if withQuality {
		cfg.Quality = quality.New(quality.Config{Metrics: cfg.Metrics})
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	errs := make([]error, gateStreams)
	var wg sync.WaitGroup
	for i := range gateStreams {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := Dial(s.Addr().String())
			if err != nil {
				errs[id] = err
				return
			}
			defer func() { _ = cl.Close() }()
			for _, a := range fx.tr.Accesses {
				if _, err := cl.Predict(uint64(id), a.PC, a.Addr, true); err != nil {
					errs[id] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	return float64(cfg.FastLatency.Quantile(0.99))
}
