package voyager

import (
	"testing"

	"voyager/internal/metrics"
	"voyager/internal/pairgate"
	"voyager/internal/trace"
	"voyager/internal/tracing"
	"voyager/internal/workloads"
)

// The paired gates on the training loop's instrumentation: a train step
// with metrics (or the span tracer) on against one with it off, 20 steps
// a side in each of pairgate.Pairs pairs. The two sides are separate
// harnesses on the same minibatch at cmd/experiments' default shape: cc
// at 48k accesses, ScaledConfig at hidden 64 with no dropout, one worker.
// They are checks, run once by scripts/verify.sh with -benchtime 1x.

// gateTrace is the cc trace both sides of a gate train on.
func gateTrace(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := workloads.Generate("cc", workloads.Config{Seed: 42, Scale: 1, MaxAccesses: 48_000})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// gateSide builds one side's harness, with observe setting its
// instrumentation, runs five warm-up steps so the tape arena and the
// instruments' buffers are filled, and returns the side: one timed step.
func gateSide(b *testing.B, tr *trace.Trace, observe func(*Config)) func() float64 {
	b.Helper()
	cfg := ScaledConfig()
	cfg.Seed = 42
	cfg.Hidden = 64
	cfg.DropoutKeep = 1
	cfg.Workers = 1
	observe(&cfg)
	h, err := NewBenchHarness(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for range 5 {
		h.TrainStep()
	}
	return pairgate.Timed(func() { h.TrainStep() })
}

// BenchmarkGateMetricsOverhead fails when a train step with Config.Metrics
// set costs more than 1.03× one without in nine tenths of the pairs.
func BenchmarkGateMetricsOverhead(b *testing.B) {
	b.ReportAllocs()
	tr := gateTrace(b)
	off := gateSide(b, tr, func(*Config) {})
	on := gateSide(b, tr, func(c *Config) { c.Metrics = metrics.NewRegistry() })
	pairgate.Run(b, 1.03, 20, off, on)
}

// BenchmarkGateTraceOverhead fails when a train step with Config.Trace
// recording costs more than 1.05× one without in nine tenths of the pairs.
func BenchmarkGateTraceOverhead(b *testing.B) {
	b.ReportAllocs()
	tr := gateTrace(b)
	off := gateSide(b, tr, func(*Config) {})
	on := gateSide(b, tr, func(c *Config) { c.Trace = tracing.New(tracing.Options{}) })
	pairgate.Run(b, 1.05, 20, off, on)
}
