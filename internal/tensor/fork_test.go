package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forkChain is one side of the fork differential: a recurrent chain over
// the parent's inputs with its own weights, read as LSTM.Step reads them
// (each input once, in LSTMGates).
type forkChain struct {
	wx, wh, b *Mat
	gwx, gwh  *Mat // gradient buffers, pre-filled
	gb        *Mat
}

// step advances the chain by one input on tape c. With cell set it is an
// LSTM step (LSTMGates then LSTMCell, hidden = gate width / 4); otherwise
// the gate projection itself is the next state, which keeps every NaN the
// inputs make the default NaN (no op negates a value).
func (ch *forkChain) step(c *Tape, x *Node, h, cs *Node, cell bool) (*Node, *Node) {
	wx, wh, b := c.Param(ch.wx), c.Param(ch.wh), c.Param(ch.b)
	wx.Grad, wh.Grad, b.Grad = ch.gwx, ch.gwh, ch.gb
	g := c.LSTMGates(x, wx, h, wh, b)
	if !cell {
		return g, nil
	}
	return c.LSTMCell(g, cs)
}

// forkCase is one run of the differential: the chains, the parent inputs
// x_0..x_{T-1} with pre-filled gradients, and the heads' seeds.
type forkCase struct {
	rows, in, hid int
	cell          bool
	xs, xg        []*Mat
	chains        [2]forkChain
	seeds         [2]*Mat
}

// newForkCase draws a case. Without cell, inputs, seeds and pre-filled
// gradients carry ±0, subnormals, ±Inf and the default NaN, and weights
// ±0 and subnormals only: a non-finite weight would spread NaN over every
// row of the recurrence and leave few finite bits to compare.
func newForkCase(rng *rand.Rand, rows, in, hid, steps int, cell bool) *forkCase {
	gen, wgen := randSpecialMat, finiteSpecialMat
	g := hid
	if cell {
		gen, wgen = randMat, randMat
		g = 4 * hid
	}
	fc := &forkCase{rows: rows, in: in, hid: hid, cell: cell}
	for t := 0; t < steps; t++ {
		fc.xs = append(fc.xs, gen(rng, rows, in))
		fc.xg = append(fc.xg, gen(rng, rows, in))
	}
	for i := range fc.chains {
		fc.chains[i] = forkChain{
			wx: wgen(rng, in, g), wh: wgen(rng, hid, g), b: wgen(rng, 1, g),
			gwx: gen(rng, in, g), gwh: gen(rng, hid, g), gb: gen(rng, 1, g),
		}
		fc.seeds[i] = gen(rng, rows, hid+in)
	}
	return fc
}

// finiteSpecialMat is randSpecialMat with its non-finite entries made -0.
func finiteSpecialMat(rng *rand.Rand, r, c int) *Mat {
	m := randSpecialMat(rng, r, c)
	for i, v := range m.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			m.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	return m
}

// forkResult is what a run leaves behind: the heads' values and every
// gradient (each input x_t and the parameter it scales, then each chain's
// wx, wh, b).
type forkResult struct {
	vals  [2]*Mat
	grads []*Mat
}

// run records the chains over the inputs, either on one tape with the two
// steps of each timestep interleaved (chain 0 first), as voyager's single
// tape did, or forked onto child tapes with the given work. The heads read
// each chain's last state next to the last input, so that input already
// holds a gradient when the join merges into it. Gradient buffers are
// cloned, so runs share nothing.
func (fc *forkCase) run(forked bool, work int) forkResult {
	chains := fc.chains
	for i := range chains {
		ch := &chains[i]
		ch.gwx, ch.gwh, ch.gb = ch.gwx.Clone(), ch.gwh.Clone(), ch.gb.Clone()
	}
	tp := NewTape()
	ps := make([]*Node, len(fc.xs))
	xs := make([]*Node, len(fc.xs))
	for t, m := range fc.xs {
		// An op output, as voyager's x_t is, so its gradient comes from
		// the arena; Scale by 1 keeps every bit.
		ps[t] = tp.Param(m)
		ps[t].Grad = fc.xg[t].Clone()
		xs[t] = tp.Scale(ps[t], 1)
	}
	var hs [2]*Node
	body := func(i int, c *Tape) {
		h := c.Const(c.NewMat(fc.rows, fc.hid))
		cs := c.Const(c.NewMat(fc.rows, fc.hid))
		for _, x := range xs {
			h, cs = chains[i].step(c, c.Input(x), h, cs, fc.cell)
		}
		hs[i] = h
	}
	if forked {
		tp.Fork(2, work, body)
	} else {
		h := [2]*Node{tp.Const(tp.NewMat(fc.rows, fc.hid)), tp.Const(tp.NewMat(fc.rows, fc.hid))}
		cs := h
		for _, x := range xs {
			for i := range chains {
				h[i], cs[i] = chains[i].step(tp, x, h[i], cs[i], fc.cell)
			}
		}
		hs = h
	}
	last := xs[len(xs)-1]
	var res forkResult
	heads := [2]*Node{tp.ConcatCols(hs[0], last), tp.ConcatCols(hs[1], last)}
	for i, hd := range heads {
		copy(hd.EnsureGrad().Data, fc.seeds[i].Data)
		res.vals[i] = hd.Val
	}
	tp.BackwardFromSeed()
	for t, x := range xs {
		res.grads = append(res.grads, x.Grad, ps[t].Grad)
	}
	for _, ch := range chains {
		res.grads = append(res.grads, ch.gwx, ch.gwh, ch.gb)
	}
	return res
}

// TestForkMatchesInterleavedTape is the fork's differential test: two
// children each read the two parent inputs once, and the last input also
// feeds the heads, so it holds their gradient when the join merges the
// chains' shares into it. Values and every gradient must match one tape
// recording the two chains' steps interleaved, bit for bit, with the
// children inline and concurrent. The special-value case (±0, subnormals,
// ±Inf, the default NaN, pre-filled gradients) runs the gate projection
// as the recurrence; the LSTM case runs LSTMGates and LSTMCell on finite
// values (in the special case about 60% of the gradients' elements stay
// finite). Shapes run serially and above parallelThreshold.
func TestForkMatchesInterleavedTape(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, s := range []struct {
		rows, in, hid int
		cell          bool
	}{
		{24, 9, 12, false}, {128, 40, 64, false}, {5, 9, 3, true}, {128, 40, 64, true},
	} {
		fc := newForkCase(rng, s.rows, s.in, s.hid, 2, s.cell)
		want := fc.run(false, 0)
		for _, work := range []int{0, forkThreshold} {
			name := fmt.Sprintf("rows=%d in=%d hid=%d cell=%v work=%d", s.rows, s.in, s.hid, s.cell, work)
			got := fc.run(true, work)
			for i := range want.vals {
				matsBitIdentical(t, fmt.Sprintf("%s head %d", name, i), got.vals[i], want.vals[i])
			}
			if len(got.grads) != len(want.grads) {
				t.Fatalf("%s: %d gradients, want %d", name, len(got.grads), len(want.grads))
			}
			for i := range want.grads {
				matsBitIdentical(t, fmt.Sprintf("%s grad %d", name, i), got.grads[i], want.grads[i])
			}
		}
	}
}

// A child reads parent nodes only through Input, and only on a child tape.
func TestForkInputPanics(t *testing.T) {
	tp := NewTape()
	x := tp.Param(NewMat(2, 2))
	other := NewTape().Param(NewMat(2, 2))
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"root tape", func() { tp.Input(x) }},
		{"foreign node", func() { tp.Fork(1, 0, func(_ int, c *Tape) { c.Input(other) }) }},
		{"own node", func() { tp.Fork(1, 0, func(_ int, c *Tape) { c.Input(c.Param(NewMat(1, 1))) }) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

// A join is recorded only when a child recorded a node, children inherit
// NoGrad, and Reset hands the same children back, reset.
func TestForkJoinRecording(t *testing.T) {
	tp := NewTape()
	x := tp.Const(NewMat(2, 2))
	var kids [2]*Tape
	tp.Fork(2, 0, func(i int, c *Tape) {
		kids[i] = c
		c.Tanh(c.Input(x))
	})
	if tp.Len() != 0 {
		t.Fatalf("constant fork recorded %d nodes on the parent, want 0", tp.Len())
	}
	p := tp.Param(NewMat(2, 2))
	tp.Fork(2, 0, func(i int, c *Tape) {
		if c == kids[0] || c == kids[1] {
			t.Errorf("second fork reused a child of the first before Reset")
		}
		c.Tanh(c.Input(p))
	})
	if tp.Len() != 1 {
		t.Fatalf("fork recorded %d nodes on the parent, want 1 join", tp.Len())
	}
	tp.Reset()
	tp.NoGrad = true
	tp.Fork(2, 0, func(i int, c *Tape) {
		if c != kids[i] {
			t.Errorf("child %d not reused after Reset", i)
		}
		if !c.NoGrad || c.Len() != 0 {
			t.Errorf("child %d: NoGrad %v, %d nodes after Reset", i, c.NoGrad, c.Len())
		}
		c.Tanh(c.Input(tp.Param(NewMat(2, 2))))
	})
	if tp.Len() != 0 {
		t.Fatalf("NoGrad fork recorded %d nodes, want 0", tp.Len())
	}
}
