package voyager

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"voyager/internal/trace"
)

// Training must be reproducible at a fixed seed and worker count: the
// ordered gradient reduce, deterministic sharding and per-worker RNG
// streams leave no scheduling dependence in the result.
func TestTrainDeterministicAtFixedWorkerCount(t *testing.T) {
	cycle := []uint64{0x10<<6 | 5, 0x22<<6 | 61, 0x15<<6 | 0, 0x9<<6 | 33}
	tr := cyclicTrace(cycle, 300)
	for _, workers := range []int{1, 4} {
		cfg := FastConfig()
		cfg.EpochAccesses = 400
		cfg.Workers = workers
		first, err := Train(tr, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		second, err := Train(tr, cfg)
		if err != nil {
			t.Fatalf("workers=%d rerun: %v", workers, err)
		}
		a, b := first.EpochLosses(), second.EpochLosses()
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("workers=%d: epoch count %d vs %d", workers, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: epoch %d loss %v vs %v (must be identical)",
					workers, i, a[i], b[i])
			}
		}
	}
}

// With randomness disabled (no dropout, full-vocabulary page head) the
// sharded path computes the same mathematical gradient as the serial path;
// only float32 reassociation across shard boundaries may differ.
func TestParallelGradientsMatchSerial(t *testing.T) {
	cycle := []uint64{100, 200, 300, 400, 500, 600, 700, 800}
	tr := cyclicTrace(cycle, 100)
	base := FastConfig()
	base.EpochAccesses = 400
	base.DropoutKeep = 1
	base.NegSamples = 0

	harness := func(workers int) *BenchHarness {
		cfg := base
		cfg.Workers = workers
		h, err := NewBenchHarness(tr, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return h
	}
	hs := harness(1)
	hp := harness(3)

	lossS := hs.p.Model.TrainBatch(hs.seqs, hs.pagePos, hs.offPos, hs.pageW, hs.offW)
	lossP := hp.p.Model.TrainBatch(hp.seqs, hp.pagePos, hp.offPos, hp.pageW, hp.offW)
	if math.Abs(float64(lossS-lossP)) > 1e-4*(1+math.Abs(float64(lossS))) {
		t.Fatalf("loss serial %v vs parallel %v", lossS, lossP)
	}

	sp := hs.p.Model.Params().All()
	pp := hp.p.Model.Params().All()
	for i := range sp {
		sg, pg := sp[i].Grad.Data, pp[i].Grad.Data
		var maxAbs, maxDiff float64
		for j := range sg {
			d := math.Abs(float64(sg[j] - pg[j]))
			if d > maxDiff {
				maxDiff = d
			}
			if a := math.Abs(float64(sg[j])); a > maxAbs {
				maxAbs = a
			}
		}
		if maxDiff > 1e-4*(1+maxAbs) {
			t.Fatalf("param %s: grad diff %v (max |g| %v)", sp[i].Name, maxDiff, maxAbs)
		}
	}
}

// Inference has no randomness and every op is row-local, so sharded
// PredictBatch must return bit-identical candidates to the serial path.
func TestPredictBatchParallelMatchesSerial(t *testing.T) {
	cycle := []uint64{10, 20, 30, 40, 50, 60}
	tr := cyclicTrace(cycle, 150)
	base := FastConfig()
	base.EpochAccesses = 400
	base.Degree = 4

	run := func(workers int) [][]Candidate {
		cfg := base
		cfg.Workers = workers
		// No training first: weights are identical across harnesses (same
		// seed), so sharded inference must reproduce serial bit-for-bit.
		h, err := NewBenchHarness(tr, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return h.p.Model.PredictBatch(h.seqs, cfg.Degree)
	}
	serial := run(1)
	parallel := run(4)
	if len(serial) != len(parallel) {
		t.Fatalf("row count %d vs %d", len(serial), len(parallel))
	}
	for r := range serial {
		if len(serial[r]) != len(parallel[r]) {
			t.Fatalf("row %d: %d vs %d candidates", r, len(serial[r]), len(parallel[r]))
		}
		for k := range serial[r] {
			if serial[r][k] != parallel[r][k] {
				t.Fatalf("row %d cand %d: %+v vs %+v", r, k, serial[r][k], parallel[r][k])
			}
		}
	}
}

// A server runs one batch per inference worker at a time. n workers of a
// Workers=n model, each on its own goroutine at once, must answer multi-row
// TokenBatches bit-for-bit as PredictAt does. A PredictTokenBatch that still
// sharded its batch across the replicas would have two goroutines writing
// one replica's tape.
func TestInferenceWorkersConcurrentMatchPredictAt(t *testing.T) {
	cycle := make([]uint64, 24)
	for i := range cycle {
		cycle[i] = uint64(0x40+i*7%13)<<6 | uint64(i*11%64)
	}
	tr := cyclicTrace(cycle, 40)
	const n = 4
	cfg := FastConfig()
	cfg.Degree = 3
	cfg.Workers = n
	h, err := NewBenchHarness(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h.TrainStep() // move the weights off their initialization
	}
	p := h.p
	positions := make([]int, p.NumAccesses())
	for i := range positions {
		positions[i] = i
	}
	want := p.PredictAt(positions, cfg.Degree)
	workers := p.Model.InferenceWorkers(n)
	if len(workers) != n || workers[0] != p.Model {
		t.Fatalf("InferenceWorkers(%d): %d workers, first is the model: %v", n, len(workers), workers[0] == p.Model)
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for g, w := range workers {
		wg.Add(1)
		go func(g int, w *Model) {
			defer wg.Done()
			errs[g] = predictAllInRows(p, w, want, g+2)
		}(g, w)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", g, err)
		}
	}
}

// predictAllInRows runs every trace position through worker w in TokenBatches
// of rows rows and compares each candidate with want, the PredictAt answers.
func predictAllInRows(p *Predictor, w *Model, want [][]Candidate, rows int) error {
	seqLen := w.Config().SeqLen
	tb := NewTokenBatch(seqLen)
	pc := make([]int32, seqLen)
	page := make([]int32, seqLen)
	off := make([]int32, seqLen)
	for lo := 0; lo < p.NumAccesses(); lo += rows {
		hi := min(lo+rows, p.NumAccesses())
		tb.Reset()
		for pos := lo; pos < hi; pos++ {
			for j := range pc {
				idx := max(pos-seqLen+1+j, 0) // buildBatch's clamp
				pt, gt, ot := p.TokensAt(idx)
				pc[j], page[j], off[j] = int32(pt), int32(gt), int32(ot)
			}
			tb.Add(pc, page, off)
		}
		got := w.PredictTokenBatch(tb, w.Config().Degree)
		for r, cands := range got {
			pos := lo + r
			if len(cands) != len(want[pos]) {
				return fmt.Errorf("pos %d: %d candidates, want %d", pos, len(cands), len(want[pos]))
			}
			for k, c := range cands {
				wc := want[pos][k]
				if c.PageTok != wc.PageTok || c.OffTok != wc.OffTok ||
					math.Float64bits(c.Score) != math.Float64bits(wc.Score) {
					return fmt.Errorf("pos %d candidate %d = %+v, want %+v", pos, k, c, wc)
				}
			}
		}
	}
	return nil
}

// InferenceWorkers builds replicas that only run inference, so they must
// carry no gradient buffers, which are as large as the weights.
func TestInferenceWorkersCarryNoGrads(t *testing.T) {
	tr := cyclicTrace([]uint64{0x10<<6 | 5, 0x22<<6 | 61, 0x15<<6 | 0, 0x9<<6 | 33}, 100)
	cfg := FastConfig()
	cfg.Workers = 1
	h, err := NewBenchHarness(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	workers := h.p.Model.InferenceWorkers(4)
	for w, r := range workers[1:] {
		for _, p := range r.Params().All() {
			if p.Grad != nil {
				t.Errorf("replica %d: %s holds a %dx%d gradient buffer", w+1, p.Name, p.Grad.Rows, p.Grad.Cols)
			}
		}
	}
}

// Replicas that served through InferenceWorkers before the model trains get
// their gradient buffers on the first sharded batch, and serving draws
// nothing from their RNG streams, so training must match, loss for loss
// and weight for weight, a model whose replicas were built by training.
func TestTrainAfterInferenceWorkersMatchesTrain(t *testing.T) {
	cycle := []uint64{0x10<<6 | 5, 0x22<<6 | 61, 0x15<<6 | 0, 0x9<<6 | 33}
	tr := cyclicTrace(cycle, 300)
	cfg := FastConfig()
	cfg.EpochAccesses = 400
	cfg.Workers = 4
	run := func(serveFirst bool) ([]float32, *BenchHarness) {
		h, err := NewBenchHarness(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if serveFirst {
			positions := make([]int, h.p.NumAccesses())
			for i := range positions {
				positions[i] = i
			}
			want := h.p.PredictAt(positions, cfg.Degree)
			for _, w := range h.p.Model.InferenceWorkers(cfg.Workers) {
				if err := predictAllInRows(h.p, w, want, 2); err != nil {
					t.Fatal(err)
				}
			}
		}
		var losses []float32
		for i := 0; i < 3; i++ {
			losses = append(losses, h.TrainStep())
		}
		return losses, h
	}
	wantLoss, wantH := run(false)
	gotLoss, gotH := run(true)
	for i := range wantLoss {
		if gotLoss[i] != wantLoss[i] {
			t.Fatalf("step %d: loss %v after serving, %v without (must be identical)", i, gotLoss[i], wantLoss[i])
		}
	}
	want, got := wantH.p.Model.Params().All(), gotH.p.Model.Params().All()
	for i, p := range want {
		for j, v := range p.W.Data {
			if math.Float32bits(got[i].W.Data[j]) != math.Float32bits(v) {
				t.Fatalf("%s[%d]: %v after serving, %v without", p.Name, j, got[i].W.Data[j], v)
			}
		}
	}
}

// WorkersAuto and explicit widths must validate; nonsense must not.
func TestWorkersValidation(t *testing.T) {
	cfg := FastConfig()
	cfg.Workers = WorkersAuto
	if err := cfg.Validate(); err != nil {
		t.Fatalf("WorkersAuto rejected: %v", err)
	}
	cfg.Workers = 8
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Workers=8 rejected: %v", err)
	}
	cfg.Workers = -2
	if cfg.Validate() == nil {
		t.Fatalf("Workers=-2 accepted")
	}
}

// The parallel path must also learn: end-to-end online training at 4
// workers on a deterministic cycle should reach the same ≥0.9 accuracy bar
// as the serial test in voyager_test.go.
func TestLearnsCycleWithParallelWorkers(t *testing.T) {
	cycle := []uint64{
		0x10<<6 | 5, 0x22<<6 | 61, 0x15<<6 | 0, 0x9<<6 | 33,
		0x30<<6 | 7, 0x11<<6 | 12, 0x28<<6 | 50, 0x3<<6 | 18,
	}
	tr := cyclicTrace(cycle, 500)
	cfg := FastConfig()
	cfg.EpochAccesses = 1000
	cfg.Workers = 4
	p, err := Train(tr, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	correct, total := 0, 0
	for i := 2 * cfg.EpochAccesses; i+1 < tr.Len(); i++ {
		preds := p.Predictions()[i]
		total++
		if len(preds) > 0 && trace.Line(preds[0]) == trace.Line(tr.Accesses[i+1].Addr) {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("parallel cycle accuracy %.2f, want ≥0.9 (losses: %v)", acc, p.EpochLosses())
	}
}
