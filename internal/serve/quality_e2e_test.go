package serve

import (
	"sync"
	"testing"

	"voyager/internal/metrics"
	"voyager/internal/prefetch/distilled"
	"voyager/internal/serve/quality"
	"voyager/internal/tracing"
)

// qualityTracker returns a tracker wired to a fresh registry, sized so the
// fixture trace rotates its windows several times.
func qualityTracker(reg *metrics.Registry, shadowEvery int) *quality.Tracker {
	return quality.New(quality.Config{
		UsefulK:     16,
		RetainK:     64,
		WindowEvery: 200,
		Windows:     2,
		ShadowEvery: shadowEvery,
		Metrics:     reg,
	})
}

// TestQualityPerturbsNothing is the acceptance gate that observability is
// pure: the PR-9 golden differential — every response bit-identical to the
// offline oracle — must hold with quality telemetry AND shadow sampling
// enabled. Four concurrent model-tier streams, scoring on, shadow ticking
// (model-tier requests never shadow, but the tracker is live throughout).
func TestQualityPerturbsNothing(t *testing.T) {
	fixture(t)
	reg := metrics.NewRegistry()
	s := startServer(t, Config{
		Model:    fx.m4,
		MaxBatch: 16,
		Metrics:  reg,
		Quality:  qualityTracker(reg, 4),
	})
	const streams = 4
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = replayStream(s, uint64(id), false)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("stream %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The scoreboard actually scored this traffic...
	preds := reg.WindowCounter("quality_predictions_model", 2).Total()
	if preds == 0 {
		t.Fatal("quality tracker saw no predictions")
	}
	// ...and with every stream OpClosed, conservation is exact:
	// predictions == useful + late + miss + overflow + unresolved.
	var settled uint64
	for _, tier := range []string{"model", "fast"} {
		settled += reg.WindowCounter("quality_useful_"+tier, 2).Total()
		settled += reg.WindowCounter("quality_late_"+tier, 2).Total()
		settled += reg.WindowCounter("quality_miss_"+tier, 2).Total()
	}
	settled += reg.Counter("quality_overflow_total").Value()
	settled += reg.Counter("quality_unresolved_total").Value()
	allPreds := preds + reg.WindowCounter("quality_predictions_fast", 2).Total()
	if allPreds != settled {
		t.Fatalf("conservation broken: %d predictions, %d settled", allPreds, settled)
	}
}

// TestQualityFastTierDifferentialWithShadow: the fast-tier differential —
// responses identical to the offline distilled replayer — holds with
// shadow sampling aggressively on (1-in-2), and the shadow passes run on
// the batcher, never the fast-tier handler path: the model-tier request
// counter stays at zero while batches and shadow samples accumulate.
func TestQualityFastTierDifferentialWithShadow(t *testing.T) {
	fixture(t)
	reg := metrics.NewRegistry()
	s := startServer(t, Config{
		Model:   fx.p.Model,
		Table:   fx.tab,
		Metrics: reg,
		Quality: qualityTracker(reg, 2),
	})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()
	offFast := replayFastOracle(t)
	for pos, a := range fx.tr.Accesses {
		r, err := cl.Predict(7, a.PC, a.Addr, true)
		if err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if r.Tier != TierFast {
			t.Fatalf("pos %d: tier %d, want fast", pos, r.Tier)
		}
		want := offFast[pos]
		if len(r.Cands) != len(want) {
			t.Fatalf("pos %d: %d candidates, want %d", pos, len(r.Cands), len(want))
		}
		for i, addr := range want {
			if r.Cands[i].Addr != addr {
				t.Fatalf("pos %d cand %d: addr %#x, want %#x", pos, i, r.Cands[i].Addr, addr)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Structural off-path proof: zero requests took the model tier, yet the
	// batcher ran (shadow jobs) and agreement samples landed.
	if got := reg.Counter("serve_requests_model_total").Value(); got != 0 {
		t.Fatalf("model tier served %d requests — shadow leaked onto the request path", got)
	}
	if reg.Counter("serve_batches_total").Value() == 0 {
		t.Fatal("no batches ran — shadow jobs never reached the model")
	}
	samples := reg.WindowCounter("quality_shadow_samples", 2).Total()
	dropped := reg.Counter("quality_shadow_dropped_total").Value()
	if samples == 0 {
		t.Fatal("no shadow samples recorded")
	}
	// Every tick either sampled or was dropped-and-counted.
	wantTicks := uint64(len(fx.tr.Accesses) / 2)
	if samples+dropped != wantTicks {
		t.Fatalf("shadow samples %d + dropped %d != ticks %d", samples, dropped, wantTicks)
	}
	agree := reg.WindowCounter("quality_shadow_agree", 2).Total()
	if agree > samples {
		t.Fatalf("agreement %d exceeds samples %d", agree, samples)
	}
}

// TestQualityPhaseChangeE2E is the headline acceptance test: a live daemon
// replays a stream whose workload shifts mid-trace to addresses the model
// has never seen. The cumulative accuracy counter barely moves — it is
// dominated by the long good phase — while the rolling window craters.
// An operator watching only lifetime counters would miss the regression;
// the window makes it visible.
func TestQualityPhaseChangeE2E(t *testing.T) {
	fixture(t)
	reg := metrics.NewRegistry()
	tracker := qualityTracker(reg, 0)
	s := startServer(t, Config{
		Model:   fx.p.Model,
		Table:   fx.tab,
		Metrics: reg,
		Quality: tracker,
	})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()

	// Phase 1: the trace the model was trained on — predictions land.
	for pos, a := range fx.tr.Accesses {
		if _, err := cl.Predict(1, a.PC, a.Addr, true); err != nil {
			t.Fatalf("phase 1 pos %d: %v", pos, err)
		}
	}
	mid := tracker.Report()
	// Phase 2: same PCs, addresses shifted into a distant untrained region
	// — a workload phase change. Stale predictions can never match.
	const shift = uint64(1) << 40
	for pos, a := range fx.tr.Accesses[:600] {
		if _, err := cl.Predict(1, a.PC, a.Addr+shift+uint64(pos)*4096, true); err != nil {
			t.Fatalf("phase 2 pos %d: %v", pos, err)
		}
	}
	end := tracker.Report()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	midAcc := float64(mid.Fast.Accuracy)
	endAcc := float64(end.Fast.Accuracy)
	endWin := float64(end.Fast.WindowAccuracy)
	t.Logf("phase-1 acc=%.3f; after shift: cumulative=%.3f window=%.3f", midAcc, endAcc, endWin)
	if midAcc <= 0.05 {
		t.Fatalf("phase-1 accuracy %.3f too low for the masking effect to be meaningful", midAcc)
	}
	// The mask: cumulative must still read above half its phase-1 value...
	if endAcc < midAcc*0.5 {
		t.Fatalf("cumulative accuracy %.3f fell below half of %.3f — not masking", endAcc, midAcc)
	}
	// ...while the rolling window shows the crater.
	if endWin > midAcc*0.25 {
		t.Fatalf("window accuracy %.3f did not crater (phase-1 %.3f)", endWin, midAcc)
	}
}

// TestCrossProcessTracePairing: a traced client replay (async spans on its
// own "rpc" process) against a traced server (async marks on its "rpc"
// process), exported separately — each file standalone-valid — then merged:
// every client span must pair, and the server's marks must share the
// client spans' pid and ids in the merged timeline. The server runs four
// batchers, each with its own rpc track.
func TestCrossProcessTracePairing(t *testing.T) {
	fixture(t)
	setProcs(t, 4)
	srvTracer := tracing.New(tracing.Options{})
	s := startServer(t, Config{
		Model:    fx.p.Model,
		Table:    fx.tab,
		MaxBatch: 8,
		Tracer:   srvTracer,
	})
	cliTracer := tracing.New(tracing.Options{})
	rpcTk := cliTracer.Track("rpc", "stream-1")

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()
	const reqs = 64
	const traceID = 0x1234
	for pos := 0; pos < reqs; pos++ {
		a := fx.tr.Accesses[pos]
		spanID := uint64(pos + 1)
		rpcTk.AsyncBegin("predict", spanID)
		if _, err := cl.PredictTraced(1, a.PC, a.Addr, pos%2 == 0, traceID, spanID); err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		rpcTk.AsyncEnd("predict", spanID)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cliData, srvData := cliTracer.Export(), srvTracer.Export()
	for name, data := range map[string][]byte{"client": cliData, "server": srvData} {
		if _, err := tracing.ValidateBytes(data); err != nil {
			t.Fatalf("%s export not standalone-valid: %v", name, err)
		}
	}
	merged, err := tracing.Merge(cliData, srvData)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	st, err := tracing.ValidateBytes(merged)
	if err != nil {
		t.Fatalf("merged timeline invalid: %v", err)
	}
	if st.AsyncSpans != reqs {
		t.Fatalf("merged async spans = %d, want %d", st.AsyncSpans, reqs)
	}
	// The server's marks must live under the same pid as the client spans:
	// srv_recv/srv_reply per request, plus srv_batch for model-tier ones.
	tf, err := tracing.Parse(merged)
	if err != nil {
		t.Fatal(err)
	}
	spanPID := -1
	marks := map[string]int{}
	for _, ev := range tf.Events {
		switch ev.Ph {
		case "b":
			if spanPID == -1 {
				spanPID = ev.PID
			} else if ev.PID != spanPID {
				t.Fatalf("client spans under two pids: %d and %d", spanPID, ev.PID)
			}
		case "n":
			if ev.PID != spanPID && spanPID != -1 {
				t.Fatalf("server mark %q pid %d, client spans pid %d — merge did not unify",
					ev.Name, ev.PID, spanPID)
			}
			marks[ev.Name]++
		}
	}
	if marks["srv_recv"] != reqs || marks["srv_reply"] != reqs {
		t.Fatalf("server marks recv=%d reply=%d, want %d each", marks["srv_recv"], marks["srv_reply"], reqs)
	}
	if marks["srv_batch"] != reqs/2 {
		t.Fatalf("srv_batch marks = %d, want %d (model-tier requests)", marks["srv_batch"], reqs/2)
	}
}

// replayFastOracle precomputes the offline distilled replayer's answers for
// the fixture trace (fresh replayer per call; it is stateful).
func replayFastOracle(t *testing.T) [][]uint64 {
	t.Helper()
	off, err := distilled.New(fx.tab, fx.p.Model.Vocab(), fx.degree)
	if err != nil {
		t.Fatalf("distilled.New: %v", err)
	}
	out := make([][]uint64, len(fx.tr.Accesses))
	for pos, a := range fx.tr.Accesses {
		want := off.Access(pos, a)
		out[pos] = append([]uint64(nil), want...)
	}
	return out
}
