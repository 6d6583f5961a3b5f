package voyager

import (
	"hash/fnv"
	"math"
	"testing"

	"voyager/internal/workloads"
)

// offlineShapeHashes trains a few steps at perfbench's offline shape
// (ScaledConfig, hidden 64, 128-row batches of cc, one worker) and hashes
// the losses, the trained weights and one PredictBatch's candidates.
func offlineShapeHashes(t *testing.T, keep float32) (losses, weights, cands uint64) {
	t.Helper()
	tr, err := workloads.Generate("cc", workloads.Config{Seed: 1, Scale: 1, MaxAccesses: 4000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig()
	cfg.Hidden = 64
	cfg.Workers = 1
	cfg.DropoutKeep = keep
	h, err := NewBenchHarness(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.BatchRows() != cfg.BatchSize {
		t.Fatalf("harness batch has %d rows, want %d", h.BatchRows(), cfg.BatchSize)
	}
	lh := fnv.New64a()
	for i := 0; i < 3; i++ {
		b := math.Float32bits(h.TrainStep())
		lh.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
	}
	wh := fnv.New64a()
	if err := h.p.SaveWeights(wh); err != nil {
		t.Fatal(err)
	}
	ch := fnv.New64a()
	for _, row := range h.p.Model.PredictBatch(h.seqs, h.p.Cfg.Degree) {
		for _, c := range row {
			s := math.Float64bits(c.Score)
			for _, v := range []uint64{uint64(c.PageTok), uint64(c.OffTok), s} {
				for k := 0; k < 64; k += 8 {
					ch.Write([]byte{byte(v >> k)})
				}
			}
		}
	}
	return lh.Sum64(), wh.Sum64(), ch.Sum64()
}

// TestForkOfflineShapeBitIdentical runs the page and offset chains on two
// goroutines (128 rows lie above the fork's cutoff) at the shape the
// offline pipeline trains at, and holds losses, weights and candidates to
// the hashes the single-tape implementation produced. Without dropout the
// heads' skip connection and both chains read the same last input, whose
// gradient then sums three terms, so the join's merge order shows in the
// bits; with dropout every chain input sums two, which commute.
func TestForkOfflineShapeBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		keep                   float32
		losses, weights, cands uint64
	}{
		{keep: 1, losses: 0xfcb57342b7688acc, weights: 0x11ac3fefccee8cf9, cands: 0xa9a607e9397a04fd},
		{keep: 0.8, losses: 0x738d7ad9093afc9e, weights: 0x399024533f2ee792, cands: 0xaae76c566ef17c8},
	} {
		l, w, c := offlineShapeHashes(t, tc.keep)
		if l != tc.losses || w != tc.weights || c != tc.cands {
			t.Errorf("keep=%v: hashes (%#x, %#x, %#x), want (%#x, %#x, %#x)",
				tc.keep, l, w, c, tc.losses, tc.weights, tc.cands)
		}
	}
}
