package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Reset must recycle matrix buffers: the same backing array comes back for a
// same-size request, possibly reshaped, and NewMat returns it zeroed.
func TestArenaRecyclesBuffers(t *testing.T) {
	tp := NewTape()
	a := tp.NewMat(3, 4)
	for i := range a.Data {
		a.Data[i] = float32(i + 1)
	}
	tp.Reset()
	b := tp.NewMat(2, 6) // same element count, different shape
	if &b.Data[0] != &a.Data[0] {
		t.Fatalf("expected recycled backing array")
	}
	if b.Rows != 2 || b.Cols != 6 {
		t.Fatalf("reshape failed: %dx%d", b.Rows, b.Cols)
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("recycled matrix not zeroed at %d: %v", i, v)
		}
	}
}

// Buffers of different sizes live on separate freelists.
func TestArenaSizeKeyedFreelist(t *testing.T) {
	tp := NewTape()
	small := tp.NewMat(2, 2)
	big := tp.NewMat(8, 8)
	tp.Reset()
	if got := tp.NewMat(8, 8); &got.Data[0] != &big.Data[0] {
		t.Fatalf("64-element request did not reuse the 64-element buffer")
	}
	if got := tp.NewMat(2, 2); &got.Data[0] != &small.Data[0] {
		t.Fatalf("4-element request did not reuse the 4-element buffer")
	}
}

// A full forward+backward step must stop allocating matrices once the arena
// is warm: the only steady-state allocations left are the backward closures
// (one small heap object per recorded op), so the budget is a handful of
// allocations instead of the hundreds of kilobytes of fresh Mats the
// pre-arena tape burned per step.
func TestArenaSteadyStateAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randMat(rng, 8, 16)
	w := randMat(rng, 16, 16)
	grad := NewMat(16, 16)
	tp := NewTape()
	step := func() {
		tp.Reset()
		grad.Zero()
		wn := tp.Param(w)
		wn.Grad = grad
		y := tp.Tanh(tp.MatMul(tp.Const(x), wn))
		h, _ := tp.LSTMCell(tp.ConcatCols(y, y, y, y), tp.Const(tp.NewMat(8, 16)))
		tp.Backward(tp.MeanAll(h))
	}
	step() // warm the arena
	// 5 recorded ops (MatMul, Tanh, ConcatCols, LSTMCell, MeanAll) → 5
	// closures plus ConcatCols' parents copy; allow a little slack.
	if allocs := testing.AllocsPerRun(10, step); allocs > 8 {
		t.Fatalf("steady-state tape step allocates %v times, want ≤8 (closures only)", allocs)
	}

	// Reset recycles the child tapes' arenas too. The children record 2
	// ops each and the parent 4 plus the join, so 9 closures; a child
	// arena that kept allocating would add some 5 matrices per child.
	var y *Node
	var hs [2]*Node
	body := func(i int, c *Tape) {
		wn := c.Param(w)
		wn.Grad = grad
		hs[i] = c.Tanh(c.MatMul(c.Input(y), wn))
	}
	forkStep := func() {
		tp.Reset()
		grad.Zero()
		wn := tp.Param(w)
		wn.Grad = grad
		y = tp.Tanh(tp.MatMul(tp.Const(x), wn))
		tp.Fork(2, 0, body)
		tp.Backward(tp.MeanAll(tp.Add(hs[0], hs[1])))
	}
	forkStep()
	if allocs := testing.AllocsPerRun(10, forkStep); allocs > 10 {
		t.Fatalf("steady-state forked step allocates %v times, want ≤10 (closures only)", allocs)
	}
}

// On a NoGrad tape every op checks its inputs before building a backward
// closure, so a warm forward pass through all of them, and through an
// inline Fork, allocates nothing and records nothing, yet computes the same
// bits as a training tape. Reset turns the tape back into a training tape.
func TestNoGradTapeAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randMat(rng, 4, 8)
	w := randMat(rng, 8, 8)
	bias := randMat(rng, 1, 8)
	mask := randMat(rng, 4, 8)
	targets := []int{0, 3, 5, 7}
	tp := NewTape()
	var outs [8]*Node
	// The fork's children run an LSTM step each on the parent's y; on a
	// NoGrad tape they record nothing and the parent records no join.
	var y *Node
	body := func(i int, c *Tape) {
		yc := c.Input(y)
		g := c.LSTMGates(yc, c.Param(w), yc, c.Param(w), c.Param(bias))
		outs[6+i], _ = c.LSTMCell(c.ConcatCols(g, g, g, g), yc)
	}
	forward := func(noGrad bool) {
		tp.Reset()
		tp.NoGrad = noGrad
		y = tp.AddBias(tp.MatMul(tp.Const(x), tp.Param(w)), tp.Param(bias))
		y = tp.LSTMGates(tp.Const(x), tp.Param(w), y, tp.Param(w), tp.Param(bias))
		y = tp.Add(tp.Mul(tp.Sigmoid(y), tp.Tanh(y)), tp.ReLU(tp.Scale(y, 0.5)))
		y = tp.DropoutMask(y, mask)
		h, c := tp.LSTMCell(tp.ConcatCols(y, y, y, y), y)
		att, _ := tp.MoEAttention(tp.SliceCols(h, 0, 2), c, 0.5)
		ce, _ := tp.SoftmaxCrossEntropy(y, targets)
		tp.Fork(2, 0, body)
		outs[0], outs[1], outs[2], outs[3], outs[4], outs[5] = h, c, att, tp.MeanAll(att), tp.SumAll(c), ce
	}

	forward(false)
	if tp.Len() == 0 {
		t.Fatal("training tape recorded nothing")
	}
	var want [8][]float32
	for i, n := range outs {
		want[i] = append([]float32(nil), n.Val.Data...)
	}
	forward(true)
	for i, n := range outs {
		if n.RequiresGrad() {
			t.Fatalf("output %d requires grad on a NoGrad tape", i)
		}
		for j, v := range n.Val.Data {
			if math.Float32bits(v) != math.Float32bits(want[i][j]) {
				t.Fatalf("output %d element %d: NoGrad %v, training tape %v", i, j, v, want[i][j])
			}
		}
	}
	if tp.Len() != 0 {
		t.Fatalf("NoGrad tape recorded %d nodes, want 0", tp.Len())
	}
	if allocs := testing.AllocsPerRun(10, func() { forward(true) }); allocs != 0 {
		t.Fatalf("warm NoGrad forward allocates %v times, want 0", allocs)
	}
	tp.Reset()
	if tp.NoGrad || !tp.Param(w).RequiresGrad() {
		t.Fatal("Reset did not clear NoGrad")
	}
}

// Node pointers handed out before more nodes are allocated must stay valid:
// the node arena grows in chunks, never by reallocating existing storage.
func TestArenaNodePointerStability(t *testing.T) {
	tp := NewTape()
	first := tp.Const(NewMat(1, 1))
	first.Val.Data[0] = 42
	for i := 0; i < 10*nodeBlockSize; i++ {
		tp.Const(NewMat(1, 1))
	}
	if first.Val.Data[0] != 42 {
		t.Fatalf("early node corrupted by arena growth")
	}
}

// Leaves are not recorded; recorded count resets with the tape.
func TestArenaResetClearsRecording(t *testing.T) {
	tp := NewTape()
	a := tp.Param(NewMat(2, 2))
	tp.Tanh(a)
	if tp.Len() != 1 {
		t.Fatalf("len=%d, want 1", tp.Len())
	}
	tp.Reset()
	if tp.Len() != 0 {
		t.Fatalf("len after Reset=%d, want 0", tp.Len())
	}
}

// TestTransposeCacheMatchesPerCall holds the input gradients of a weight
// read at every timestep, dx_t += dY_t·Wᵀ with Wᵀ built once per backward
// pass (Tape.transposed), to the Go kernel reading W, bit for bit, on
// every vector path. Between the two steps W moves in place, as the
// optimizer moves it, and the second step must read the new W: the cache
// goes at Reset, and every step builds Wᵀ once.
func TestTransposeCacheMatchesPerCall(t *testing.T) {
	onVecPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		const rows, k, n, steps = 9, 13, 20, 4
		w := finiteSpecialMat(rng, k, n)
		tp := NewTape()
		for step := range 2 {
			tp.Reset()
			if len(tp.trans) != 0 {
				t.Fatalf("step %d: %d transposes survive Reset", step, len(tp.trans))
			}
			var pre, seeds []*Mat
			var nodes []*Node
			for range steps {
				x := tp.Param(randSpecialMat(rng, rows, k))
				x.Grad = randSpecialMat(rng, rows, k)
				y := tp.MatMul(x, tp.Const(w))
				seed := randSpecialMat(rng, rows, n)
				copy(y.EnsureGrad().Data, seed.Data)
				pre, seeds, nodes = append(pre, x.Grad.Clone()), append(seeds, seed), append(nodes, x)
			}
			tp.BackwardFromSeed()
			for i, x := range nodes {
				want := pre[i]
				matMulABTransRange(want, seeds[i], w, 0, rows)
				matsBitIdentical(t, fmt.Sprintf("step %d dx_%d", step, i), x.Grad, want)
			}
			if useAVX2 && len(tp.trans) != 1 {
				t.Fatalf("step %d: %d cached transposes, want 1", step, len(tp.trans))
			}
			for i := range w.Data {
				w.Data[i] = w.Data[i]*0.5 + 0.25
			}
		}
	})
}
