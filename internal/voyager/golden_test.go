package voyager

import (
	"bytes"
	"hash/fnv"
	"testing"

	"voyager/internal/metrics"
	"voyager/internal/tracing"
)

// Golden fixed-seed outputs captured from the pre-arena, pre-fusion
// implementation (commit bc334f1). The arena tape, the fused LSTM cell and
// the in-place gradient kernels are all required to preserve per-element
// float32 operation order, so end-to-end training must stay bit-identical:
// same epoch losses, same predictions, at every worker count.
var goldenLosses = map[int][]float32{
	1: {0.19748633, 0.18969719, 0.18703955, 0.18488663},
	4: {0.19796471, 0.19005823, 0.18713123, 0.1853421},
}

const goldenPredHash = uint64(0x841f3e64aba880a3)

// goldenRun trains the fixed-seed cyclic trace and returns the epoch
// losses, an FNV hash of every prediction, and an FNV hash of the trained
// weights. reg optionally attaches the observability registry, tracer the
// span tracer, and prov the provenance log — none of which may change any
// of the three outputs.
func goldenRun(t *testing.T, workers int, unfused bool, reg *metrics.Registry,
	tracer *tracing.Tracer, prov *tracing.DecisionLog) ([]float32, uint64, uint64) {
	t.Helper()
	cycle := []uint64{0x10<<6 | 5, 0x22<<6 | 61, 0x15<<6 | 0, 0x9<<6 | 33,
		0x30<<6 | 7, 0x11<<6 | 12, 0x28<<6 | 50, 0x3<<6 | 18}
	tr := cyclicTrace(cycle, 500)
	cfg := FastConfig()
	cfg.EpochAccesses = 1000
	cfg.Workers = workers
	cfg.UnfusedLSTM = unfused
	cfg.Metrics = reg
	cfg.Trace = tracer
	cfg.Provenance = prov
	p, err := Train(tr, cfg)
	if err != nil {
		t.Fatalf("workers=%d unfused=%v: %v", workers, unfused, err)
	}
	var h uint64 = 1469598103934665603
	for _, preds := range p.Predictions() {
		for _, a := range preds {
			h ^= a
			h *= 1099511628211
		}
	}
	hw := fnv.New64a()
	if err := p.SaveWeights(hw); err != nil {
		t.Fatalf("workers=%d: SaveWeights: %v", workers, err)
	}
	return p.EpochLosses(), h, hw.Sum64()
}

// TestGoldenEquivalenceFixedSeed locks end-to-end training to the values the
// pre-optimization implementation produced: epoch losses and the FNV hash of
// every prediction must match bit-for-bit at 1 and 4 workers, on both the
// fused and the unfused LSTM path. At 1 worker the page and offset chains
// run concurrently on their child tapes (forced: FastConfig's chains fall
// below the cutoff); the shards of 4 workers run them inline.
func TestGoldenEquivalenceFixedSeed(t *testing.T) {
	forceConcurrentChains = true
	t.Cleanup(func() { forceConcurrentChains = false })
	for _, workers := range []int{1, 4} {
		for _, unfused := range []bool{false, true} {
			losses, h, _ := goldenRun(t, workers, unfused, nil, nil, nil)
			want := goldenLosses[workers]
			if len(losses) != len(want) {
				t.Fatalf("workers=%d unfused=%v: %d epochs, want %d (losses %v)",
					workers, unfused, len(losses), len(want), losses)
			}
			for i := range want {
				if losses[i] != want[i] {
					t.Fatalf("workers=%d unfused=%v: epoch %d loss %v, want %v (bit-identical)",
						workers, unfused, i, losses[i], want[i])
				}
			}
			if h != goldenPredHash {
				t.Fatalf("workers=%d unfused=%v: prediction hash %#x, want %#x",
					workers, unfused, h, goldenPredHash)
			}
		}
	}
}

// TestGoldenMetricsDifferential is the observability layer's differential
// guarantee, in two parts. First, at each worker count a metrics-enabled run
// must be bit-identical to the metrics-disabled run: same epoch losses, same
// prediction hash, same trained weights — instruments observe, they never
// perturb. Second, the protocol-level counters (steps, samples, tokens,
// epochs, predict batches) must be identical across worker counts: sharding
// a batch changes RNG streams and float summation order (hence the separate
// goldenLosses per width) but never how much work the protocol does.
func TestGoldenMetricsDifferential(t *testing.T) {
	counterNames := []string{
		"train_steps_total", "train_samples_total", "train_tokens_total",
		"train_epochs_total", "predict_batches_total",
	}
	totals := map[int]map[string]uint64{}
	for _, workers := range []int{1, 4} {
		offLosses, offPred, offWeights := goldenRun(t, workers, false, nil, nil, nil)
		reg := metrics.NewRegistry()
		onLosses, onPred, onWeights := goldenRun(t, workers, false, reg, nil, nil)

		if len(onLosses) != len(offLosses) {
			t.Fatalf("workers=%d: %d epochs with metrics, %d without", workers, len(onLosses), len(offLosses))
		}
		for i := range offLosses {
			if onLosses[i] != offLosses[i] {
				t.Fatalf("workers=%d: epoch %d loss %v with metrics, %v without (must be bit-identical)",
					workers, i, onLosses[i], offLosses[i])
			}
		}
		if onPred != offPred {
			t.Fatalf("workers=%d: prediction hash %#x with metrics, %#x without", workers, onPred, offPred)
		}
		if onWeights != offWeights {
			t.Fatalf("workers=%d: weight hash %#x with metrics, %#x without", workers, onWeights, offWeights)
		}

		snap := reg.Snapshot()
		if err := snap.Validate(); err != nil {
			t.Fatalf("workers=%d: snapshot invalid: %v", workers, err)
		}
		totals[workers] = map[string]uint64{}
		for _, name := range counterNames {
			v, ok := snap.Counter(name)
			if !ok || v == 0 {
				t.Fatalf("workers=%d: counter %s missing or zero", workers, name)
			}
			totals[workers][name] = v
		}
		// Every optimizer step times at least one shard, and shard timings
		// from all workers account for at least one observation per step.
		var shardObs uint64
		for _, h := range snap.Histograms {
			if len(h.Name) > len("train_shard_seconds.") && h.Name[:len("train_shard_seconds.")] == "train_shard_seconds." {
				shardObs += h.Count
			}
		}
		if steps := totals[workers]["train_steps_total"]; shardObs < steps {
			t.Fatalf("workers=%d: %d shard observations for %d steps", workers, shardObs, steps)
		}
	}
	for _, name := range counterNames {
		if totals[1][name] != totals[4][name] {
			t.Fatalf("counter %s: %d at workers=1, %d at workers=4 (protocol totals must not depend on sharding)",
				name, totals[1][name], totals[4][name])
		}
	}
}

// TestGoldenTraceDifferential extends the differential guarantee to the
// execution-span tracer and the provenance log: at each worker count a run
// with both attached must be bit-identical to the bare run, the logical-mode
// export must be byte-identical across two identical runs (span tracing's
// reproducibility claim, at the library level), the timeline must validate,
// and every recorded decision must carry a stream-valid trigger index.
func TestGoldenTraceDifferential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		offLosses, offPred, offWeights := goldenRun(t, workers, false, nil, nil, nil)

		traced := func() ([]byte, *tracing.DecisionLog, []float32, uint64, uint64) {
			tracer := tracing.New(tracing.Options{Logical: true})
			prov := tracing.NewDecisionLog("golden")
			losses, pred, weights := goldenRun(t, workers, false, nil, tracer, prov)
			return tracer.Export(), prov, losses, pred, weights
		}
		export1, prov, onLosses, onPred, onWeights := traced()
		export2, _, _, _, _ := traced()

		for i := range offLosses {
			if onLosses[i] != offLosses[i] {
				t.Fatalf("workers=%d: epoch %d loss %v with tracing, %v without (must be bit-identical)",
					workers, i, onLosses[i], offLosses[i])
			}
		}
		if onPred != offPred || onWeights != offWeights {
			t.Fatalf("workers=%d: hashes with tracing (%#x, %#x) differ from bare run (%#x, %#x)",
				workers, onPred, onWeights, offPred, offWeights)
		}

		if !bytes.Equal(export1, export2) {
			t.Fatalf("workers=%d: logical exports of identical runs differ", workers)
		}
		st, err := tracing.ValidateBytes(export1)
		if err != nil {
			t.Fatalf("workers=%d: training timeline invalid: %v", workers, err)
		}
		if st.Spans == 0 {
			t.Fatalf("workers=%d: no spans recorded", workers)
		}
		// One wall-clock process ("train") with main + one row per worker.
		if st.Processes != 1 || st.Threads != workers+1 {
			t.Fatalf("workers=%d: %d processes / %d threads, want 1 / %d",
				workers, st.Processes, st.Threads, workers+1)
		}

		if prov.Len() == 0 {
			t.Fatalf("workers=%d: no decisions recorded", workers)
		}
		for _, d := range prov.Decisions() {
			if d.Index < 1000 || d.Index >= 4000 {
				t.Fatalf("workers=%d: decision index %d outside the predicted range [1000, 4000)",
					workers, d.Index)
			}
		}
		// The cyclic trace is perfectly predictable: the stamped scheme masks
		// must show at least some decisions matched by a labeling scheme.
		matched := 0
		for _, d := range prov.Decisions() {
			if d.Schemes != 0 {
				matched++
			}
		}
		if matched == 0 {
			t.Fatalf("workers=%d: no decision matched any labeling scheme on a cyclic trace", workers)
		}
	}
}
