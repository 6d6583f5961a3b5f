package nn

import (
	"fmt"
	"math/rand"

	"voyager/internal/tensor"
)

// Embedding maps integer ids to learned dense vectors. Gradients are
// row-sparse: only rows looked up in a batch are updated.
type Embedding struct {
	Table *Param
	Dim   int
}

// NewEmbedding creates a vocab×dim embedding table initialized with
// Glorot-uniform noise.
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	p := NewSparseParam(name, vocab, dim)
	p.W.Glorot(rng)
	return &Embedding{Table: p, Dim: dim}
}

// Vocab returns the number of rows in the table.
func (e *Embedding) Vocab() int { return e.Table.W.Rows }

// ShadowClone returns an embedding sharing this one's weights but writing
// gradients into its own buffer (see Param.ShadowClone).
func (e *Embedding) ShadowClone() *Embedding {
	return &Embedding{Table: e.Table.ShadowClone(), Dim: e.Dim}
}

// Lookup gathers rows ids from the table as a len(ids)×dim node. The
// backward pass scatter-adds output gradients into the touched rows. The
// caller must keep ids unchanged until Backward completes (the hot path
// reuses its id buffers only across batches, never within one). On a
// NoGrad tape the rows are a constant node with no backward closure.
func (e *Embedding) Lookup(tp *tensor.Tape, ids []int) *tensor.Node {
	out := tp.NewMat(len(ids), e.Dim)
	for r, id := range ids {
		if id < 0 || id >= e.Table.W.Rows {
			panic(fmt.Sprintf("nn: embedding %s lookup id %d out of range [0,%d)", e.Table.Name, id, e.Table.W.Rows))
		}
		copy(out.Row(r), e.Table.W.Row(id))
	}
	if tp.NoGrad {
		return tp.Const(out)
	}
	return tp.Custom(out, true, func(n *tensor.Node) {
		for r, id := range ids {
			grow := e.Table.Grad.Row(id)
			for i, v := range n.Grad.Row(r) {
				grow[i] += v
			}
			e.Table.Touch(id)
		}
	})
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W *Param
	B *Param
}

// NewLinear creates an in×out linear layer (Glorot weights, zero bias).
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	w := NewParam(name+".w", in, out)
	w.W.Glorot(rng)
	b := NewParam(name+".b", 1, out)
	return &Linear{W: w, B: b}
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ShadowClone returns a linear layer sharing this one's weights but writing
// gradients into its own buffers (see Param.ShadowClone).
func (l *Linear) ShadowClone() *Linear {
	return &Linear{W: l.W.ShadowClone(), B: l.B.ShadowClone()}
}

// Forward applies the layer to x (batch×in), producing batch×out.
func (l *Linear) Forward(tp *tensor.Tape, x *tensor.Node) *tensor.Node {
	return tp.AddBias(tp.MatMul(x, l.W.Node(tp)), l.B.Node(tp))
}

// ForwardSampled computes logits only for the selected output columns —
// the sampled-softmax/BCE trick that makes training tractable when the
// output vocabulary is large (only the label columns plus a handful of
// random negatives need gradients). Returns a batch×len(cols) node.
func (l *Linear) ForwardSampled(tp *tensor.Tape, x *tensor.Node, cols []int) *tensor.Node {
	in := l.W.W.Rows
	outFull := l.W.W.Cols
	batch := x.Val.Rows
	for _, c := range cols {
		if c < 0 || c >= outFull {
			panic(fmt.Sprintf("nn: ForwardSampled column %d out of range [0,%d)", c, outFull))
		}
	}
	out := tp.NewMat(batch, len(cols))
	w := l.W.W
	bias := l.B.W.Row(0)
	// Gather the sampled columns into a transposed len(cols)×in scratch so
	// the dot products below read memory sequentially; the seed kernel's
	// outFull-strided walk thrashes cache on large vocabulary heads. The
	// per-element summation order is unchanged, so results are bit-identical.
	// Each product here and in the backward is converted explicitly, so gc
	// cannot fuse it into the add where it fuses a*b+c (arm64, for one).
	// cols must stay unchanged until Backward completes.
	wcols := tp.NewMat(len(cols), in)
	for j, c := range cols {
		wrow := wcols.Row(j)
		for k := 0; k < in; k++ {
			wrow[k] = w.Data[k*outFull+c]
		}
	}
	for b := 0; b < batch; b++ {
		xrow := x.Val.Row(b)
		orow := out.Row(b)
		for j := range cols {
			s := bias[cols[j]]
			wrow := wcols.Row(j)
			for k, xv := range xrow {
				s += float32(xv * wrow[k])
			}
			orow[j] = s
		}
	}
	return tp.Custom(out, true, func(n *tensor.Node) {
		xg := x.EnsureGrad()
		wg := l.W.Grad
		bg := l.B.Grad.Row(0)
		// Accumulate weight gradients in the transposed scratch, then
		// scatter-add once per (column, k) — same order over the batch as
		// the strided kernel, so the sums are bit-identical when the
		// gradient region starts zeroed (it does: Adam clears per step).
		wgcols := tp.NewMat(len(cols), in)
		for b := 0; b < batch; b++ {
			xrow := x.Val.Row(b)
			xgrow := xg.Row(b)
			grow := n.Grad.Row(b)
			for j, c := range cols {
				g := grow[j]
				if g == 0 {
					continue
				}
				bg[c] += g
				wrow := wcols.Row(j)
				wgrow := wgcols.Row(j)
				for k, xv := range xrow {
					xgrow[k] += float32(g * wrow[k])
					wgrow[k] += float32(g * xv)
				}
			}
		}
		for j, c := range cols {
			wgrow := wgcols.Row(j)
			for k, v := range wgrow {
				if v != 0 {
					wg.Data[k*outFull+c] += v
				}
			}
		}
	})
}

// LSTM is a single-layer LSTM cell (Hochreiter & Schmidhuber). Gate layout
// in the 4H-wide projections is [input, forget, cell, output].
type LSTM struct {
	In, Hidden int
	Wx         *Param // In×4H
	Wh         *Param // Hidden×4H
	B          *Param // 1×4H

	// Unfused routes Step through the node-per-op formulation instead of
	// the fused tensor.LSTMGates and tensor.LSTMCell kernels. The two paths
	// are bit-identical; this is a test hook for the differential suite,
	// not a tuning knob.
	Unfused bool
}

// NewLSTM creates an LSTM cell with Glorot weights and forget-gate bias 1
// (standard practice to ease gradient flow early in training).
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		In:     in,
		Hidden: hidden,
		Wx:     NewParam(name+".wx", in, 4*hidden),
		Wh:     NewParam(name+".wh", hidden, 4*hidden),
		B:      NewParam(name+".b", 1, 4*hidden),
	}
	l.Wx.W.Glorot(rng)
	l.Wh.W.Glorot(rng)
	for c := hidden; c < 2*hidden; c++ {
		l.B.W.Set(0, c, 1)
	}
	return l
}

// Params returns the cell's trainable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// ShadowClone returns an LSTM cell sharing this one's weights but writing
// gradients into its own buffers (see Param.ShadowClone).
func (l *LSTM) ShadowClone() *LSTM {
	return &LSTM{
		In:      l.In,
		Hidden:  l.Hidden,
		Wx:      l.Wx.ShadowClone(),
		Wh:      l.Wh.ShadowClone(),
		B:       l.B.ShadowClone(),
		Unfused: l.Unfused,
	}
}

// State holds the recurrent hidden and cell activations for one batch.
type State struct {
	H *tensor.Node
	C *tensor.Node
}

// ZeroState returns an all-zero initial state for the given batch size,
// backed by the tape's arena.
func (l *LSTM) ZeroState(tp *tensor.Tape, batch int) State {
	return State{
		H: tp.Const(tp.NewMat(batch, l.Hidden)),
		C: tp.Const(tp.NewMat(batch, l.Hidden)),
	}
}

// Step advances the cell one timestep with input x (batch×In) and the
// previous state, returning the new state. It records two tape nodes: the
// gate projection x·Wx + h·Wh + b as one tensor.LSTMGates node, and the
// activations, cell update and hidden output as one tensor.LSTMCell node.
// Both are bit-identical to StepUnfused's node chain. Either way x is read
// by one op (LSTMGates, or StepUnfused's first MatMul), so x may be a fork
// child's Input leaf (tensor.Tape.Fork).
func (l *LSTM) Step(tp *tensor.Tape, x *tensor.Node, s State) State {
	if l.Unfused {
		return l.StepUnfused(tp, x, s)
	}
	gates := tp.LSTMGates(x, l.Wx.Node(tp), s.H, l.Wh.Node(tp), l.B.Node(tp))
	h, c := tp.LSTMCell(gates, s.C)
	return State{H: h, C: c}
}

// StepUnfused is the pre-fusion formulation of Step — the gate projection
// as MatMul, MatMul, Add and AddBias nodes, then 4 SliceCols copies, 4
// activation nodes and 3 element-wise nodes per call. It is kept as the
// differential-test oracle for the fused kernels.
func (l *LSTM) StepUnfused(tp *tensor.Tape, x *tensor.Node, s State) State {
	gates := tp.AddBias(
		tp.Add(tp.MatMul(x, l.Wx.Node(tp)), tp.MatMul(s.H, l.Wh.Node(tp))),
		l.B.Node(tp),
	)
	h := l.Hidden
	i := tp.Sigmoid(tp.SliceCols(gates, 0, h))
	f := tp.Sigmoid(tp.SliceCols(gates, h, 2*h))
	g := tp.Tanh(tp.SliceCols(gates, 2*h, 3*h))
	o := tp.Sigmoid(tp.SliceCols(gates, 3*h, 4*h))
	c := tp.Add(tp.Mul(f, s.C), tp.Mul(i, g))
	hOut := tp.Mul(o, tp.Tanh(c))
	return State{H: hOut, C: c}
}

// Run unrolls the cell over a sequence of inputs, returning the final state.
func (l *LSTM) Run(tp *tensor.Tape, xs []*tensor.Node) State {
	if len(xs) == 0 {
		panic("nn: LSTM.Run with empty sequence")
	}
	s := l.ZeroState(tp, xs[0].Val.Rows)
	for _, x := range xs {
		s = l.Step(tp, x, s)
	}
	return s
}

// Dropout applies inverted dropout with the given keep probability when
// train is true; at inference it is the identity. Randomness comes from the
// caller's rng so runs are reproducible.
func Dropout(tp *tensor.Tape, x *tensor.Node, keep float32, rng *rand.Rand, train bool) *tensor.Node {
	if !train || keep >= 1 {
		return x
	}
	if keep <= 0 {
		panic("nn: Dropout keep probability must be positive")
	}
	// The mask comes from the tape arena, so each worker reuses one buffer
	// per shape across steps instead of allocating a fresh Mat per call.
	mask := tp.NewMat(x.Val.Rows, x.Val.Cols)
	inv := 1 / keep
	for i := range mask.Data {
		if rng.Float32() < keep {
			mask.Data[i] = inv
		}
	}
	return tp.DropoutMask(x, mask)
}
