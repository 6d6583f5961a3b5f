package nn

import (
	"math"
	"math/rand"
	"testing"

	"voyager/internal/tensor"
)

// TestLSTMStepFusedMatchesUnfused unrolls a multi-step sequence through the
// fused Step and the StepUnfused oracle on identical weights and inputs, and
// demands bit-identical hidden states, parameter gradients and input
// gradients (each x is a leaf that needs one, as the embedding output is in
// training). This is the layer-level differential guarantee the voyager
// golden test relies on.
func TestLSTMStepFusedMatchesUnfused(t *testing.T) {
	const in, hidden, batch, steps = 6, 5, 4, 3

	run := func(unfused bool) [][]float32 {
		rng := rand.New(rand.NewSource(33))
		l := NewLSTM("diff", in, hidden, rng)
		l.Unfused = unfused
		tp := tensor.NewTape()
		xs := make([]*tensor.Node, steps)
		for s := range xs {
			x := tensor.NewMat(batch, in)
			x.Uniform(rng, 1)
			xs[s] = tp.Leaf(x, true)
		}
		state := l.ZeroState(tp, batch)
		for _, x := range xs {
			state = l.Step(tp, x, state)
		}
		loss := tp.MeanAll(tp.Tanh(state.H))
		tp.Backward(loss)
		out := [][]float32{append([]float32(nil), state.H.Val.Data...)}
		for _, p := range l.Params() {
			out = append(out, append([]float32(nil), p.Grad.Data...))
		}
		for _, x := range xs {
			out = append(out, append([]float32(nil), x.Grad.Data...))
		}
		return out
	}

	// Rows: h, then the gradients of Wx, Wh and B, then of each x.
	fused, unfused := run(false), run(true)
	for r := range fused {
		for i := range fused[r] {
			if math.Float32bits(fused[r][i]) != math.Float32bits(unfused[r][i]) {
				t.Fatalf("row %d [%d]: fused %v vs unfused %v (must be bit-identical)",
					r, i, fused[r][i], unfused[r][i])
			}
		}
	}
}

// ShadowClone must propagate the Unfused test hook so data-parallel replicas
// stay on the same code path as the primary.
func TestShadowClonePropagatesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	l := NewLSTM("clone", 3, 2, rng)
	l.Unfused = true
	if !l.ShadowClone().Unfused {
		t.Fatalf("ShadowClone dropped Unfused")
	}
}
