package voyager

import (
	"testing"
)

// Steady-state allocation budgets for the hot path. Before the tape arena a
// FastConfig TrainBatch burned thousands of allocations per step (fresh Mats
// for every op's value and gradient); with the arena the remainder of a
// train step is the per-op backward closures plus a few result slices: ~63
// at one worker and ~266 at four, with each LSTM step recording two nodes.
// Inference runs on a NoGrad tape and builds no closures at all, so a
// predict step is down to its result slices and the worker fan-out: ~33 at
// one worker and ~50 at four (closures at inference would put it back near
// 113 and 370). The train budgets sit below the 87 and 362 a step made
// when the gate projection was four nodes, and the predict budgets leave
// ~50% headroom: they exist to catch a regression that reintroduces
// per-step matrix or per-kernel dispatch allocation, extra nodes per LSTM
// step, or backward closures at inference, not to pin exact counts.
func TestSteadyStateAllocBudget(t *testing.T) {
	cycle := []uint64{0x10<<6 | 5, 0x22<<6 | 61, 0x15<<6 | 0, 0x9<<6 | 33}
	tr := cyclicTrace(cycle, 300)
	for _, tc := range []struct {
		workers        int
		train, predict float64
	}{
		{workers: 1, train: 80, predict: 50},
		{workers: 4, train: 330, predict: 75},
	} {
		cfg := FastConfig()
		cfg.Workers = tc.workers
		h, err := NewBenchHarness(tr, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", tc.workers, err)
		}
		// Warm the arenas: first steps grow freelists and scratch buffers.
		for i := 0; i < 3; i++ {
			h.TrainStep()
			h.PredictStep()
		}
		if got := testing.AllocsPerRun(10, func() { h.TrainStep() }); got > tc.train {
			t.Errorf("workers=%d: TrainStep allocates %v/op, budget %v", tc.workers, got, tc.train)
		}
		if got := testing.AllocsPerRun(10, func() { h.PredictStep() }); got > tc.predict {
			t.Errorf("workers=%d: PredictStep allocates %v/op, budget %v", tc.workers, got, tc.predict)
		}
	}

	// The serving shape: prefetchd's batcher runs 1-row PredictTokenBatch
	// calls on a ScaledConfig, hidden-64 model. 3 allocations per call, the
	// result slices (~120 if the ops built their backward closures again).
	cfg := ScaledConfig()
	cfg.Hidden = 64
	cfg.Workers = 1
	h, err := NewBenchHarness(tr, cfg)
	if err != nil {
		t.Fatalf("serving shape: %v", err)
	}
	tb := NewTokenBatch(cfg.SeqLen)
	pc := make([]int32, cfg.SeqLen)
	page := make([]int32, cfg.SeqLen)
	off := make([]int32, cfg.SeqLen)
	end := h.predictPositions[0]
	for j := range pc {
		p, g, o := h.p.TokensAt(end - cfg.SeqLen + 1 + j)
		pc[j], page[j], off[j] = int32(p), int32(g), int32(o)
	}
	tb.Add(pc, page, off)
	predict := func() { h.p.Model.PredictTokenBatch(tb, cfg.Degree) }
	for i := 0; i < 3; i++ {
		predict()
	}
	if got := testing.AllocsPerRun(10, predict); got > 5 {
		t.Errorf("1-row PredictTokenBatch allocates %v/op, budget 5", got)
	}
}
