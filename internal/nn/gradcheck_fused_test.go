package nn

import (
	"math"
	"math/rand"
	"testing"

	"voyager/internal/tensor"
)

// Finite-difference gradient check through an LSTM step + linear head at
// dimensions wide enough (≥ 8 inner terms) to exercise the 4-wide fused
// matmul passes and the 8-column vector blocks, not just their scalar
// remainder loops: the analytic gradient must stay consistent with the
// finite-difference quotient of the same kernels. The kernels are exact —
// every dispatch path rounds like the scalar reference — so one subtest
// covers them.
func TestGradCheckFusedKernels(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		const in, hidden, batch = 9, 8, 5
		cell := NewLSTM("lstm", in, hidden, rng)
		head := NewLinear("head", hidden, 3, rng)
		x1 := tensor.NewMat(batch, in)
		x2 := tensor.NewMat(batch, in)
		x1.Uniform(rng, 1)
		x2.Uniform(rng, 1)
		targets := []int{0, 2, 1, 0, 2}

		build := func() (*tensor.Tape, *tensor.Node) {
			tp := tensor.NewTape()
			s := cell.Run(tp, []*tensor.Node{tp.Const(x1), tp.Const(x2)})
			logits := head.Forward(tp, s.H)
			loss, _ := tp.SoftmaxCrossEntropy(logits, targets)
			return tp, loss
		}

		params := append(cell.Params(), head.Params()...)
		for _, p := range params {
			p.ZeroGrad()
		}
		tp, loss := build()
		tp.Backward(loss)

		const eps, tol = 1e-2, 3e-2
		for _, p := range params {
			stride := 1 + p.Size()/12
			for i := 0; i < p.Size(); i += stride {
				orig := p.W.Data[i]
				p.W.Data[i] = orig + eps
				_, lp := build()
				p.W.Data[i] = orig - eps
				_, lm := build()
				p.W.Data[i] = orig
				numeric := (float64(lp.Val.Data[0]) - float64(lm.Val.Data[0])) / (2 * eps)
				analytic := float64(p.Grad.Data[i])
				diff := math.Abs(numeric - analytic)
				scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
				if diff/scale > tol {
					t.Fatalf("%s elem %d: analytic %g numeric %g", p.Name, i, analytic, numeric)
				}
			}
		}
	})
}
