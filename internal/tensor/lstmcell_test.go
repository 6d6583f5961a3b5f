package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// unfusedCell replays the node-per-op formulation LSTMCell replaced (the
// oracle for the differential test below).
func unfusedCell(tp *Tape, gates, cPrev *Node, hd int) (h, c *Node) {
	i := tp.Sigmoid(tp.SliceCols(gates, 0, hd))
	f := tp.Sigmoid(tp.SliceCols(gates, hd, 2*hd))
	g := tp.Tanh(tp.SliceCols(gates, 2*hd, 3*hd))
	o := tp.Sigmoid(tp.SliceCols(gates, 3*hd, 4*hd))
	c = tp.Add(tp.Mul(f, cPrev), tp.Mul(i, g))
	h = tp.Mul(o, tp.Tanh(c))
	return h, c
}

// TestGradLSTMCell numerically verifies the fused cell's backward, including
// the dual-output path: the loss reads both h and c (as a later timestep
// would), so h's fused closure must fold the externally accumulated c.Grad in.
func TestGradLSTMCell(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const batch, hd = 3, 4
	x := randMat(rng, batch, 5)
	w := randMat(rng, 5, 4*hd)
	b := randMat(rng, 1, 4*hd)
	cp := randMat(rng, batch, hd)
	checkGrad(t, "lstm-cell", []*Mat{w, b, cp}, func() (*Tape, *Node, []*Node) {
		tp := NewTape()
		wn := tp.Param(w)
		bn := tp.Param(b)
		cpn := tp.Param(cp)
		gates := tp.AddBias(tp.MatMul(tp.Const(x), wn), bn)
		h, c := tp.LSTMCell(gates, cpn)
		loss := tp.MeanAll(tp.Add(h, tp.Tanh(c)))
		return tp, loss, []*Node{wn, bn, cpn}
	})
}

// TestLSTMCellMatchesUnfused drives the fused op and the node-per-op oracle
// on identical inputs and demands bit-identical forward values and input
// gradients — the house rule the whole PR is built on.
func TestLSTMCellMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const batch, hd = 5, 7
	gatesVal := randMat(rng, batch, 4*hd)
	cpVal := randMat(rng, batch, hd)
	seed := randMat(rng, batch, hd)  // upstream dL/dh
	cSeed := randMat(rng, batch, hd) // upstream dL/dc (next timestep)

	run := func(fused bool) (h, c, gGrad, cpGrad *Mat) {
		tp := NewTape()
		gates := tp.Param(gatesVal)
		cPrev := tp.Param(cpVal)
		var hn, cn *Node
		if fused {
			hn, cn = tp.LSTMCell(gates, cPrev)
		} else {
			hn, cn = unfusedCell(tp, gates, cPrev, hd)
		}
		// Seed both outputs as a surrounding graph would.
		copy(hn.EnsureGrad().Data, seed.Data)
		cn.EnsureGrad().AddInPlace(cSeed)
		tp.BackwardFromSeed()
		return hn.Val, cn.Val, gates.Grad, cPrev.Grad
	}

	fh, fc, fg, fcp := run(true)
	uh, uc, ug, ucp := run(false)
	cmp := func(name string, a, b *Mat) {
		t.Helper()
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%s[%d]: fused %v vs unfused %v (must be bit-identical)",
					name, i, a.Data[i], b.Data[i])
			}
		}
	}
	cmp("h", fh, uh)
	cmp("c", fc, uc)
	cmp("dGates", fg, ug)
	cmp("dCPrev", fcp, ucp)
}

// The fused cell must reject mismatched shapes.
func TestLSTMCellShapePanics(t *testing.T) {
	tp := NewTape()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for gate/state shape mismatch")
		}
	}()
	tp.LSTMCell(tp.Const(NewMat(2, 12)), tp.Const(NewMat(2, 4)))
}

// TestLSTMGatesMatchesChain holds the one-node gate projection to the
// AddBias(Add(MatMul, MatMul)) chain it replaced, bit for bit: the value
// and all five gradients. Inputs and the seeded output gradient carry ±0,
// subnormals, ±Inf and NaN, so the chain's +0 + dG hand-off to the
// matmuls differs from dG wherever dG is -0. Shapes run serially and above
// parallelThreshold (128·64·256), with 4H straddling the 8- and 32-column
// blocks. h is a Const as at the first timestep, or a node that needs a
// gradient; every gradient starts pre-filled, as x's does when the other
// LSTM has already added its share.
func TestLSTMGatesMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range []struct{ rows, in, hid, g int }{
		{1, 3, 1, 4}, {5, 9, 9, 36}, {7, 2, 64, 256}, {128, 40, 9, 36}, {128, 64, 64, 256},
	} {
		xv := randSpecialMat(rng, s.rows, s.in)
		wxv := randSpecialMat(rng, s.in, s.g)
		hv := randSpecialMat(rng, s.rows, s.hid)
		whv := randSpecialMat(rng, s.hid, s.g)
		bv := randSpecialMat(rng, 1, s.g)
		seed := randSpecialMat(rng, s.rows, s.g)
		pre := [5]*Mat{
			randSpecialMat(rng, s.rows, s.in), randSpecialMat(rng, s.in, s.g),
			randSpecialMat(rng, s.rows, s.hid), randSpecialMat(rng, s.hid, s.g),
			randSpecialMat(rng, 1, s.g),
		}
		for _, hConst := range []bool{true, false} {
			run := func(fused bool) (*Mat, [5]*Mat) {
				tp := NewTape()
				var in [5]*Node
				for i, m := range [5]*Mat{xv, wxv, hv, whv, bv} {
					in[i] = tp.Param(m)
					in[i].Grad = pre[i].Clone()
				}
				if hConst {
					in[2] = tp.Const(hv)
				}
				var out *Node
				if fused {
					out = tp.LSTMGates(in[0], in[1], in[2], in[3], in[4])
				} else {
					out = tp.AddBias(tp.Add(tp.MatMul(in[0], in[1]), tp.MatMul(in[2], in[3])), in[4])
				}
				copy(out.EnsureGrad().Data, seed.Data)
				tp.BackwardFromSeed()
				var grads [5]*Mat
				for i, n := range in {
					grads[i] = n.Grad
				}
				return out.Val, grads
			}
			name := fmt.Sprintf("%dx%d·%dx%d + %dx%d·%dx%d hConst=%v",
				s.rows, s.in, s.in, s.g, s.rows, s.hid, s.hid, s.g, hConst)
			fv, fg := run(true)
			cv, cg := run(false)
			matsBitIdentical(t, name+" value", fv, cv)
			for i, g := range fg {
				if (g == nil) != (cg[i] == nil) {
					t.Fatalf("%s: grad %d: fused nil=%v, chain nil=%v", name, i, g == nil, cg[i] == nil)
				}
				if g != nil {
					matsBitIdentical(t, fmt.Sprintf("%s grad %d", name, i), g, cg[i])
				}
			}
		}
	}
}

// LSTMGates must reject a bias or recurrent weight that does not match wx.
func TestLSTMGatesShapePanics(t *testing.T) {
	tp := NewTape()
	x, h := tp.Const(NewMat(2, 3)), tp.Const(NewMat(2, 4))
	wx, wh := tp.Const(NewMat(3, 8)), tp.Const(NewMat(4, 8))
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"bias", func() { tp.LSTMGates(x, wx, h, wh, tp.Const(NewMat(1, 4))) }},
		{"wh", func() { tp.LSTMGates(x, wx, h, tp.Const(NewMat(4, 4)), tp.Const(NewMat(1, 8))) }},
		{"h rows", func() { tp.LSTMGates(x, wx, tp.Const(NewMat(3, 4)), wh, tp.Const(NewMat(1, 8))) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a shape panic", c.name)
				}
			}()
			c.f()
		}()
	}
}
