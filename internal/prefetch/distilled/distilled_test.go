package distilled

import (
	"testing"

	"voyager/internal/distill"
	"voyager/internal/metrics"
	"voyager/internal/sim"
	"voyager/internal/trace"
	"voyager/internal/tracing"
	"voyager/internal/vocab"
	"voyager/internal/voyager"
)

func cyclicTrace(laps int) *trace.Trace {
	cycle := []uint64{
		0x10<<6 | 5, 0x22<<6 | 61, 0x15<<6 | 0, 0x9<<6 | 33,
		0x30<<6 | 7, 0x11<<6 | 12, 0x28<<6 | 50, 0x3<<6 | 18,
	}
	tr := &trace.Trace{Name: "cycle"}
	inst := uint64(0)
	for l := 0; l < laps; l++ {
		for i, line := range cycle {
			inst += 5
			tr.Append(0x400000+uint64(i%3)*8, line<<trace.LineBits, inst)
		}
	}
	tr.Instructions = inst
	return tr
}

// distilledOver trains a FastConfig teacher on tr, compiles the default
// fallback chain from it, and binds the online replayer.
func distilledOver(t *testing.T, tr *trace.Trace, degree int) (*Prefetcher, *voyager.Predictor) {
	t.Helper()
	cfg := voyager.FastConfig()
	cfg.EpochAccesses = 1000
	p, err := voyager.Train(tr, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	prm := distill.Params{HistLen: 3, TopK: 4, Log2Buckets: 10, MarkovLog2: 8, MaxProbe: 16}
	tab := distill.Compile(p, 0, p.NumAccesses(), prm)
	pf, err := New(tab, p.Model.Vocab(), degree)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return pf, p
}

// The distilled replay of a learned deterministic cycle must predict the
// next line almost everywhere once the context window is warm.
func TestReplayPredictsCycle(t *testing.T) {
	tr := cyclicTrace(500)
	pf, _ := distilledOver(t, tr, 1)
	if pf.Name() != "distilled" {
		t.Fatalf("Name = %q", pf.Name())
	}
	correct, total := 0, 0
	for i := 0; i+1 < tr.Len(); i++ {
		preds := pf.Access(i, tr.Accesses[i])
		if i < 16 { // warmup: ring not yet representative
			continue
		}
		total++
		if len(preds) > 0 && trace.Line(preds[0]) == trace.Line(tr.Accesses[i+1].Addr) {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("distilled cycle accuracy %.3f, want ≥0.9", acc)
	}
	tiers := pf.TierCounts()
	if tiers[distill.TierKey] == 0 {
		t.Fatalf("no full-context hits on the calibration trace: %v", tiers)
	}
}

func TestVocabFingerprintMismatch(t *testing.T) {
	tr := cyclicTrace(200)
	pf, p := distilledOver(t, tr, 1)
	_ = pf
	other := cyclicTrace(200)
	for i := range other.Accesses {
		other.Accesses[i].Addr += 1 << 20 // different pages → different vocab
	}
	voc := vocab.Build(other, vocab.DefaultOptions())
	tab := distill.Compile(p, 0, 100, distill.DefaultParams())
	if _, err := New(tab, voc, 1); err == nil {
		t.Fatalf("mismatched vocabulary accepted")
	}
}

func TestDegreeAndDedup(t *testing.T) {
	tr := cyclicTrace(300)
	pf, _ := distilledOver(t, tr, 2)
	for i, a := range tr.Accesses {
		out := pf.Access(i, a)
		if len(out) > 2 {
			t.Fatalf("access %d: %d predictions exceed degree 2", i, len(out))
		}
		for j := 1; j < len(out); j++ {
			if out[j] == out[0] {
				t.Fatalf("access %d: duplicate prediction %#x", i, out[j])
			}
		}
		for _, addr := range out {
			if addr&(1<<trace.LineBits-1) != 0 {
				t.Fatalf("access %d: prediction %#x not line-aligned", i, addr)
			}
		}
	}
}

func TestResetRestartsWarmup(t *testing.T) {
	tr := cyclicTrace(100)
	pf, _ := distilledOver(t, tr, 1)
	first := pf.Access(0, tr.Accesses[0])
	for i := 1; i < 50; i++ {
		pf.Access(i, tr.Accesses[i])
	}
	pf.Reset()
	again := pf.Access(0, tr.Accesses[0])
	if len(first) != len(again) {
		t.Fatalf("replay after Reset diverges at access 0: %v vs %v", first, again)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("replay after Reset diverges: %v vs %v", first, again)
		}
	}
}

// The ISSUE-7 acceptance gate: a distilled predictor drives an
// instrumented, provenance-logged simulation and the accounting layers
// reconcile — every decision in exactly one outcome bucket, issued totals
// equal across the decision table, the Result, and the metrics counters,
// and attaching the observers changes no Result bit.
func TestProvenanceConservation(t *testing.T) {
	tr := cyclicTrace(750) // 6000 accesses
	pf, _ := distilledOver(t, tr, 2)
	cfg := sim.ScaledConfig()

	plain := sim.NewMachine(cfg).Run(tr, pf)

	pf.Reset()
	reg := metrics.NewRegistry()
	tracer := tracing.New(tracing.Options{Logical: true})
	log := tracing.NewDecisionLog("cycle/distilled")
	m := sim.NewMachine(cfg)
	m.Instrument(reg)
	m.Trace(tracer, "sim/distilled")
	m.Provenance(log)
	res := m.Run(tr, pf)

	if res != plain {
		t.Fatalf("observers perturbed the distilled run:\n  with:    %+v\n  without: %+v", res, plain)
	}
	if log.Len() == 0 || res.PrefetchesIssued == 0 {
		t.Fatalf("degenerate run: %d decisions, %d issued", log.Len(), res.PrefetchesIssued)
	}

	tab := log.BuildTable(nil)
	total := tab.Total
	if total.Decisions != log.Len() {
		t.Fatalf("table decisions %d != log length %d", total.Decisions, log.Len())
	}
	if got := total.Useful + total.Late + total.Evicted + total.Resident +
		total.Dropped + total.Unsimulated; got != total.Decisions {
		t.Fatalf("outcome buckets sum to %d, want %d", got, total.Decisions)
	}
	snap := reg.Snapshot()
	issued, _ := snap.Counter("sim_prefetches_issued_total")
	useful, _ := snap.Counter("sim_prefetches_useful_total")
	if uint64(total.Issued) != res.PrefetchesIssued || uint64(total.Issued) != issued {
		t.Errorf("issued: provenance %d, Result %d, counter %d", total.Issued, res.PrefetchesIssued, issued)
	}
	if got := uint64(total.Useful + total.Late); got != res.PrefetchesUseful || got != useful {
		t.Errorf("useful+late: provenance %d, Result %d, counter %d", got, res.PrefetchesUseful, useful)
	}
	if _, err := tracing.ValidateBytes(tracer.Export()); err != nil {
		t.Fatalf("distilled simulator timeline invalid: %v", err)
	}
}
