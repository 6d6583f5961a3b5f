package tensor

import (
	"fmt"

	"voyager/internal/tracing"
)

// Node is a value in the autodiff graph: a matrix plus (lazily allocated)
// gradient storage and a backward closure. Nodes are arena-allocated by
// their Tape: a node (and any matrix it references that came from
// Tape.NewMat) is only valid until the tape's next Reset.
type Node struct {
	Val  *Mat
	Grad *Mat

	requiresGrad bool
	tape         *Tape
	back         func(n *Node)
}

// RequiresGrad reports whether gradients flow into this node.
func (n *Node) RequiresGrad() bool { return n.requiresGrad }

// ensureGrad allocates the gradient matrix on first use. Gradients for
// tape-owned nodes come from the tape's arena so they are recycled on Reset;
// parameter nodes have their Grad assigned externally and are never
// arena-managed.
func (n *Node) ensureGrad() *Mat {
	if n.Grad == nil {
		if n.tape != nil {
			n.Grad = n.tape.NewMat(n.Val.Rows, n.Val.Cols)
		} else {
			n.Grad = NewMat(n.Val.Rows, n.Val.Cols)
		}
	}
	return n.Grad
}

// EnsureGrad exposes gradient allocation for external custom ops (package
// nn builds fused ops via Tape.Custom and must write input gradients).
func (n *Node) EnsureGrad() *Mat { return n.ensureGrad() }

// nodeBlockSize is the node-arena chunk size. Chunks are never reallocated,
// so node pointers stay valid for the lifetime of the tape; Reset just
// rewinds the cursor and reuses the same chunks.
const nodeBlockSize = 256

// Tape records differentiable operations in execution order so Backward can
// replay them in reverse. A Tape is not safe for concurrent use; keep one
// long-lived tape per worker and Reset it between steps.
//
// The tape doubles as a memory arena: NewMat hands out matrices from a
// freelist keyed by element count, and Reset recycles every node, value and
// gradient matrix allocated since the previous Reset. After warmup a
// steady-state forward+backward pass performs no matrix allocations.
type Tape struct {
	nodes []*Node

	// Track is the optional execution-span row for this tape's worker: when
	// set, backward passes record a "tape_backward" span on it. nil (the
	// default) keeps the tape silent — a nil track's methods are no-ops.
	Track *tracing.Track

	// NoGrad makes this an inference tape until the next Reset: Param binds
	// weights as leaves that need no gradient, so no op builds a backward
	// closure, pre-allocates a gradient buffer or records a node. Forward
	// values come from the same code either way.
	NoGrad bool

	// Node arena: fixed-size chunks with a cursor, rewound on Reset.
	blocks  [][]Node
	nodeCur int

	// Matrix arena: free holds recycled matrices by element count; used
	// tracks every matrix handed out since the last Reset.
	free map[int][]*Mat
	used []*Mat

	// trans holds bᵀ, in arena matrices, for each b that a backward pass
	// has multiplied by as a·bᵀ since the last Reset (see transposed).
	trans []transposedMat

	// terms is SigmoidBCEWeighted's float64 row of loss terms, kept
	// across Resets.
	terms []float64

	// Fork state. kids are this tape's child tapes, built on first use and
	// kept across Resets; kids[:kidCur] have recorded a body since the last
	// Reset. On a child, parent is the forking tape and inputs are the
	// Input leaves that need a gradient, paired with the parent nodes they
	// stand for.
	kids   []*Tape
	kidCur int
	parent *Tape
	inputs []forkInput
}

// forkInput pairs a child tape's Input leaf with the parent node it reads.
type forkInput struct{ leaf, src *Node }

// transposedMat pairs a matrix with its transpose.
type transposedMat struct{ src, t *Mat }

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset discards all recorded operations, clears NoGrad and recycles every
// arena matrix handed out since the previous Reset, retaining capacity; it
// resets the child tapes of every Fork since then the same way. Nodes and
// matrices obtained from this tape or its children must not be used after
// Reset.
func (t *Tape) Reset() {
	for _, c := range t.kids[:t.kidCur] {
		c.Reset()
	}
	t.kidCur = 0
	t.inputs = t.inputs[:0]
	clear(t.trans)
	t.trans = t.trans[:0]
	t.nodes = t.nodes[:0]
	t.NoGrad = false
	t.nodeCur = 0
	if len(t.used) > 0 && t.free == nil {
		t.free = make(map[int][]*Mat)
	}
	for _, m := range t.used {
		t.free[len(m.Data)] = append(t.free[len(m.Data)], m)
	}
	t.used = t.used[:0]
}

// Len returns the number of recorded nodes.
func (t *Tape) Len() int { return len(t.nodes) }

// NewMat returns a zeroed rows×cols matrix owned by the tape's arena: it is
// recycled (and its contents invalidated) by the next Reset. Freelist
// entries are keyed by element count, so a recycled buffer may be reshaped.
func (t *Tape) NewMat(rows, cols int) *Mat { return t.getMat(rows, cols, true) }

// getMat is NewMat with an optional zeroing pass; ops that overwrite every
// element skip it. Fresh allocations are already zeroed by the runtime.
func (t *Tape) getMat(rows, cols int, zero bool) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	if list := t.free[rows*cols]; len(list) > 0 {
		m := list[len(list)-1]
		t.free[rows*cols] = list[:len(list)-1]
		m.Rows, m.Cols = rows, cols
		if zero {
			m.Zero()
		}
		t.used = append(t.used, m)
		return m
	}
	m := NewMat(rows, cols)
	t.used = append(t.used, m)
	return m
}

// allocNode hands out the next node from the arena, zeroed and bound to t.
func (t *Tape) allocNode() *Node {
	bi, off := t.nodeCur/nodeBlockSize, t.nodeCur%nodeBlockSize
	if bi == len(t.blocks) {
		t.blocks = append(t.blocks, make([]Node, nodeBlockSize))
	}
	t.nodeCur++
	n := &t.blocks[bi][off]
	*n = Node{tape: t}
	return n
}

// Leaf wraps an existing matrix as a graph input. If requiresGrad is true
// (parameters), gradients accumulate into node.Grad; otherwise the node is a
// constant (data inputs). Leaves carry no backward closure and are not
// recorded, so Len() counts only backprop-relevant operations.
func (t *Tape) Leaf(m *Mat, requiresGrad bool) *Node {
	n := t.allocNode()
	n.Val = m
	n.requiresGrad = requiresGrad
	return n
}

// Param is shorthand for Leaf(m, true), or Leaf(m, false) on a NoGrad tape.
func (t *Tape) Param(m *Mat) *Node { return t.Leaf(m, !t.NoGrad) }

// Const is shorthand for Leaf(m, false).
func (t *Tape) Const(m *Mat) *Node { return t.Leaf(m, false) }

// record appends an op output that needs a gradient, with the closure that
// propagates it. An op whose inputs need no gradient returns an unrecorded
// Const instead, and checks that before building its closure: a func
// literal passed as an argument is heap-allocated even if the callee drops
// it.
func (t *Tape) record(val *Mat, back func(n *Node)) *Node {
	n := t.allocNode()
	n.Val = val
	n.requiresGrad = true
	n.back = back
	t.nodes = append(t.nodes, n)
	return n
}

// Backward seeds the gradient of root with 1s (it is typically a 1×1 loss)
// and propagates gradients to every recorded node in reverse order.
func (t *Tape) Backward(root *Node) {
	if root.Val.Rows*root.Val.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward root must be scalar, got %s", root.Val.shape()))
	}
	root.ensureGrad().Fill(1)
	t.backwardFrom()
}

// BackwardFromSeed propagates gradients assuming root.Grad has already been
// seeded by the caller (used by fused loss ops that set gradients directly).
func (t *Tape) BackwardFromSeed() {
	sp := t.Track.Begin("tape_backward")
	t.backwardFrom()
	sp.End()
}

func (t *Tape) backwardFrom() {
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.Grad == nil {
			continue // no gradient flowed into this node
		}
		n.back(n)
	}
}

// Custom records an externally computed operation on the tape. If
// requiresGrad is true, back runs during Backward with out.Grad populated;
// the closure is responsible for propagating gradients to its inputs
// (e.g. scatter-adds into an embedding table). Used by package nn for ops
// that do not fit the Mat-in/Mat-out mold.
func (t *Tape) Custom(val *Mat, requiresGrad bool, back func(out *Node)) *Node {
	n := t.allocNode()
	n.Val = val
	n.requiresGrad = requiresGrad
	if requiresGrad && back != nil {
		n.back = back
		t.nodes = append(t.nodes, n)
	}
	return n
}

// ---------------------------------------------------------------------------
// Fork/join: independent bodies recorded side by side on child tapes.
// ---------------------------------------------------------------------------

// forkThreshold is the multiply-accumulate work per child below which Fork
// runs its children inline. A concurrent child starts some 0.03-0.13 ms
// after the fork on a 2-vCPU host (DESIGN §5.6), about the forward time
// of a 2M-MAC LSTM chain on that host's AVX-512 kernels. In one probe at
// hidden 64, a training step over 16 rows (2.6M MACs a chain) ran ~1.15x
// faster forked, one over 8 rows (1.3M) no faster. Sized like
// parallelThreshold: the offline pipeline's 128-row chains (20M) lie far
// above it, FastConfig's 32-row chains (0.8M) and serving's 1-2-row
// predicts below.
const forkThreshold = 1 << 21

// joinMat is the value and gradient of every join node. A join has
// neither, but backwardFrom runs only nodes that hold a gradient.
var joinMat = &Mat{}

// Fork records k independent bodies, body(i, c) for child tape c = 0..k-1,
// and joins them into this tape. A body reads nodes of this tape only
// through c.Input and records its ops on c; its result nodes (kept by the
// caller, e.g. in variables the body writes) are ordinary inputs to later
// ops on this tape. Children belong to this tape: built on first use,
// reused, and reset with it. They inherit NoGrad and record no spans.
//
// work is the multiply-accumulate count of one body. When k > 1 and work ≥
// forkThreshold, child 0 runs on the caller and the others on RunTasks'
// goroutines, forward here and backward in the join; otherwise all run
// inline, one after the other. A caller that already spreads work over
// every CPU (a data-parallel shard, one serving batcher per CPU) passes 0.
// Bodies that run concurrently must share no mutable state beyond what
// they own; each child's ops touch only its own arena.
//
// If any child recorded a node, Fork records one join node here. Its
// backward runs each child's backward pass, then adds each Input leaf's
// gradient into its parent node: children from the last to the first, and
// within a child, leaves from the last Input to the first. That is the
// order in which one tape would add the gradients of the same reads, had
// it recorded body 0's reads of parent nodes (in Input order), then body
// 1's, and so on, and the bits match under one condition: each Input leaf
// is read by exactly one op, whose backward adds into the leaf's gradient
// once a sum that starts at +0. MatMul and LSTMGates do (through the
// a·bᵀ kernels). Such a sum is never -0, so the zeroed leaf buffer
// holds it exactly, and adding it into the parent node later is the same
// single add in the same order. A leaf read by two ops would round their
// two sums together first; a body that reads a parent node twice takes
// two Inputs.
func (t *Tape) Fork(k, work int, body func(i int, c *Tape)) {
	for len(t.kids) < t.kidCur+k {
		t.kids = append(t.kids, &Tape{parent: t})
	}
	kids := t.kids[t.kidCur : t.kidCur+k]
	t.kidCur += k
	for _, c := range kids {
		c.NoGrad = t.NoGrad
	}
	concurrent := k > 1 && work >= forkThreshold
	eachChild(kids, concurrent, body)
	for _, c := range kids {
		if len(c.nodes) > 0 {
			n := t.record(joinMat, func(*Node) { joinBackward(kids, concurrent) })
			n.Grad = joinMat
			return
		}
	}
}

// eachChild runs f on every child, concurrently through RunTasks or
// inline in index order.
func eachChild(kids []*Tape, concurrent bool, f func(i int, c *Tape)) {
	if !concurrent {
		for i, c := range kids {
			f(i, c)
		}
		return
	}
	RunTasks(len(kids), func(i int) { f(i, kids[i]) })
}

// joinBackward is a join node's backward: the children's backward passes,
// then the merge of their input gradients in reverse recording order.
func joinBackward(kids []*Tape, concurrent bool) {
	eachChild(kids, concurrent, childBackward)
	for i := len(kids) - 1; i >= 0; i-- {
		ins := kids[i].inputs
		for j := len(ins) - 1; j >= 0; j-- {
			if g := ins[j].leaf.Grad; g != nil {
				ins[j].src.ensureGrad().AddInPlace(g)
			}
		}
	}
}

func childBackward(_ int, c *Tape) { c.backwardFrom() }

// Input returns a leaf on t, a Fork child, that stands for n, a node of
// t's parent: the same value and requiresGrad, with its own gradient
// buffer from t's arena, which the join adds into n's (see Fork).
func (t *Tape) Input(n *Node) *Node {
	if t.parent == nil || n.tape != t.parent {
		panic("tensor: Input needs a child tape and a node of its parent")
	}
	leaf := t.Leaf(n.Val, n.requiresGrad)
	if n.requiresGrad {
		t.inputs = append(t.inputs, forkInput{leaf: leaf, src: n})
	}
	return leaf
}

// ---------------------------------------------------------------------------
// Differentiable operations.
// ---------------------------------------------------------------------------

// MatMul returns a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	out := t.getMat(a.Val.Rows, b.Val.Cols, false)
	MatMul(out, a.Val, b.Val)
	if !a.requiresGrad && !b.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) { t.matMulBackward(a, b, n.Grad) })
}

// matMulBackward propagates dY, the gradient of a·b recorded on t, into a
// and b. a's gradient, dY·bᵀ, takes bᵀ from t.transposed on the vector
// path.
func (t *Tape) matMulBackward(a, b *Node, dY *Mat) {
	if a.requiresGrad {
		g := a.ensureGrad()
		if useAVX2 {
			matMulABTransVec(g, dY, t.transposed(b.Val))
		} else {
			MatMulABTransAcc(g, dY, b.Val)
		}
	}
	if b.requiresGrad {
		MatMulATransBAcc(b.ensureGrad(), a.Val, dY)
	}
}

// transposed returns bᵀ. The first call for b since the last Reset builds
// it in an arena matrix, and later calls return that matrix, so a
// backward pass that multiplies by a weight at every timestep transposes
// it once. b's values must therefore not change between a backward pass
// and the next Reset; the optimizer runs after the pass, and the next
// step starts with a Reset. Each Fork child keeps its own cache.
func (t *Tape) transposed(b *Mat) *Mat {
	for _, e := range t.trans {
		if e.src == b {
			return e.t
		}
	}
	bt := t.getMat(b.Cols, b.Rows, false)
	transposeInto(bt, b)
	t.trans = append(t.trans, transposedMat{src: b, t: bt})
	return bt
}

// Add returns a+b element-wise; shapes must match.
func (t *Tape) Add(a, b *Node) *Node {
	if !a.Val.SameShape(b.Val) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %s vs %s", a.Val.shape(), b.Val.shape()))
	}
	out := t.getMat(a.Val.Rows, a.Val.Cols, false)
	copy(out.Data, a.Val.Data)
	out.AddInPlace(b.Val)
	if !a.requiresGrad && !b.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		if a.requiresGrad {
			a.ensureGrad().AddInPlace(n.Grad)
		}
		if b.requiresGrad {
			b.ensureGrad().AddInPlace(n.Grad)
		}
	})
}

// AddBias returns a + bias broadcast across rows; bias must be 1×cols.
func (t *Tape) AddBias(a, bias *Node) *Node {
	if bias.Val.Rows != 1 || bias.Val.Cols != a.Val.Cols {
		panic(fmt.Sprintf("tensor: AddBias bias %s incompatible with %s", bias.Val.shape(), a.Val.shape()))
	}
	out := t.getMat(a.Val.Rows, a.Val.Cols, false)
	copy(out.Data, a.Val.Data)
	brow := bias.Val.Row(0)
	for r := 0; r < out.Rows; r++ {
		row := out.Row(r)
		for c, v := range brow {
			row[c] += v
		}
	}
	if !a.requiresGrad && !bias.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		if a.requiresGrad {
			a.ensureGrad().AddInPlace(n.Grad)
		}
		if bias.requiresGrad {
			biasBackward(bias, n.Grad)
		}
	})
}

// biasBackward adds the column sums of dY, the gradient of a row-broadcast
// bias's output, into the 1×cols bias, one row at a time.
func biasBackward(bias *Node, dY *Mat) {
	g := bias.ensureGrad().Row(0)
	for r := 0; r < dY.Rows; r++ {
		for c, v := range dY.Row(r) {
			g[c] += v
		}
	}
}

// LSTMGates returns the LSTM gate projection x·wx + h·wh + b as one node,
// with the 1×cols bias b broadcast across rows. It stands for the four
// nodes of AddBias(Add(MatMul(x, wx), MatMul(h, wh)), b) and keeps their
// bits: each element is P + Q, then + b, with P = x·wx and Q = h·wh from
// MatMul, the roundings and operand order of Add and then AddBias. Q lives
// in a scratch matrix, so a call keeps one arena matrix and no
// intermediate gradient. The backward runs the chain's backward code in
// its reverse tape order: bias column sums, then h and wh, then x and wx.
// The chain hands each matmul +0 + dG rather than dG, which differs only
// where dG is -0, and every matmul-backward kernel starts its sums at +0,
// where a ±0 term changes nothing, so the gradients keep their bits.
func (t *Tape) LSTMGates(x, wx, h, wh, b *Node) *Node {
	cols := wx.Val.Cols
	if h.Val.Rows != x.Val.Rows || wh.Val.Cols != cols || b.Val.Rows != 1 || b.Val.Cols != cols {
		panic(fmt.Sprintf("tensor: LSTMGates shapes x %s wx %s h %s wh %s b %s",
			x.Val.shape(), wx.Val.shape(), h.Val.shape(), wh.Val.shape(), b.Val.shape()))
	}
	out := t.getMat(x.Val.Rows, cols, false)
	MatMul(out, x.Val, wx.Val)
	q := scratchMat(h.Val.Rows, cols)
	MatMul(q, h.Val, wh.Val)
	brow := b.Val.Row(0)
	for r := 0; r < out.Rows; r++ {
		orow := out.Row(r)[:len(brow)]
		qrow := q.Row(r)[:len(brow)]
		if useAVX512 {
			gatesAddAVX512(orow, qrow, brow)
			continue
		}
		for c, v := range brow {
			s := orow[c] + qrow[c]
			orow[c] = s + v
		}
	}
	releaseScratch(q)
	if !x.requiresGrad && !wx.requiresGrad && !h.requiresGrad && !wh.requiresGrad && !b.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		if b.requiresGrad {
			biasBackward(b, n.Grad)
		}
		t.matMulBackward(h, wh, n.Grad)
		t.matMulBackward(x, wx, n.Grad)
	})
}

// Mul returns a⊙b (element-wise product); shapes must match.
func (t *Tape) Mul(a, b *Node) *Node {
	if !a.Val.SameShape(b.Val) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %s vs %s", a.Val.shape(), b.Val.shape()))
	}
	out := t.getMat(a.Val.Rows, a.Val.Cols, false)
	for i, v := range a.Val.Data {
		out.Data[i] = v * b.Val.Data[i]
	}
	if !a.requiresGrad && !b.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		if a.requiresGrad {
			g := a.ensureGrad()
			for i, gv := range n.Grad.Data {
				g.Data[i] += float32(gv * b.Val.Data[i])
			}
		}
		if b.requiresGrad {
			g := b.ensureGrad()
			for i, gv := range n.Grad.Data {
				g.Data[i] += float32(gv * a.Val.Data[i])
			}
		}
	})
}

// Scale returns s*a.
func (t *Tape) Scale(a *Node, s float32) *Node {
	out := t.getMat(a.Val.Rows, a.Val.Cols, false)
	for i, v := range a.Val.Data {
		out.Data[i] = v * s
	}
	if !a.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		a.ensureGrad().AxpyInPlace(s, n.Grad)
	})
}

// Sigmoid returns 1/(1+e^-a) element-wise.
func (t *Tape) Sigmoid(a *Node) *Node {
	out := t.getMat(a.Val.Rows, a.Val.Cols, false)
	sigmoidRow(out.Data, a.Val.Data)
	if !a.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		g := a.ensureGrad()
		for i, gv := range n.Grad.Data {
			y := n.Val.Data[i]
			g.Data[i] += float32(gv * y * (1 - y))
		}
	})
}

// Tanh returns tanh(a) element-wise.
func (t *Tape) Tanh(a *Node) *Node {
	out := t.getMat(a.Val.Rows, a.Val.Cols, false)
	tanhRow(out.Data, a.Val.Data)
	if !a.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		g := a.ensureGrad()
		for i, gv := range n.Grad.Data {
			y := n.Val.Data[i]
			g.Data[i] += float32(gv * (1 - float32(y*y)))
		}
	})
}

// ReLU returns max(0, a) element-wise.
func (t *Tape) ReLU(a *Node) *Node {
	out := t.getMat(a.Val.Rows, a.Val.Cols, false)
	for i, v := range a.Val.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	if !a.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		g := a.ensureGrad()
		for i, gv := range n.Grad.Data {
			if a.Val.Data[i] > 0 {
				g.Data[i] += gv
			}
		}
	})
}

// ConcatCols concatenates nodes column-wise; all inputs must share a row
// count. The result has the summed column count.
func (t *Tape) ConcatCols(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	rows := nodes[0].Val.Rows
	total := 0
	for _, nd := range nodes {
		if nd.Val.Rows != rows {
			panic("tensor: ConcatCols row mismatch")
		}
		total += nd.Val.Cols
	}
	out := t.getMat(rows, total, false)
	off := 0
	for _, nd := range nodes {
		c := nd.Val.Cols
		for r := 0; r < rows; r++ {
			copy(out.Row(r)[off:off+c], nd.Val.Row(r))
		}
		off += c
	}
	req := false
	for _, nd := range nodes {
		req = req || nd.requiresGrad
	}
	if !req {
		return t.Const(out)
	}
	parents := append([]*Node(nil), nodes...)
	return t.record(out, func(n *Node) {
		off := 0
		for _, nd := range parents {
			c := nd.Val.Cols
			if nd.requiresGrad {
				g := nd.ensureGrad()
				for r := 0; r < rows; r++ {
					grow := g.Row(r)
					nrow := n.Grad.Row(r)[off : off+c]
					for i, v := range nrow {
						grow[i] += v
					}
				}
			}
			off += c
		}
	})
}

// SliceCols returns columns [lo, hi) of a as a new node.
func (t *Tape) SliceCols(a *Node, lo, hi int) *Node {
	if lo < 0 || hi > a.Val.Cols || lo >= hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %s", lo, hi, a.Val.shape()))
	}
	out := t.getMat(a.Val.Rows, hi-lo, false)
	for r := 0; r < a.Val.Rows; r++ {
		copy(out.Row(r), a.Val.Row(r)[lo:hi])
	}
	if !a.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		g := a.ensureGrad()
		for r := 0; r < a.Val.Rows; r++ {
			grow := g.Row(r)[lo:hi]
			for i, v := range n.Grad.Row(r) {
				grow[i] += v
			}
		}
	})
}

// LSTMCell is the fused LSTM cell update: given the pre-activation gate
// matrix (batch×4H, gate layout [input, forget, cell, output]) and the
// previous cell state cPrev (batch×H), it computes
//
//	i = σ(g₀)  f = σ(g₁)  g = tanh(g₂)  o = σ(g₃)
//	c = f⊙cPrev + i⊙g
//	h = o⊙tanh(c)
//
// row by row (lstmCellRow), and runs the entire backward in one fused
// closure. It replaces the 4 SliceCols copies, 4 activation
// nodes and 3 element-wise nodes the unfused formulation records per step;
// every per-element float32 operation is evaluated in the same order as
// that node chain, so forward values and gradients are bit-identical to it.
//
// The returned c node carries no backward closure of its own: the next
// timestep accumulates dL/dc into c.Grad, and h's fused backward — which
// runs before anything recorded earlier — folds it in. Both h and c have
// their gradient buffers pre-allocated when gradients are required, so the
// fused backward never sees a nil input. When neither input needs a
// gradient, h and c are unrecorded constants.
func (t *Tape) LSTMCell(gates, cPrev *Node) (h, c *Node) {
	hd := cPrev.Val.Cols
	batch := cPrev.Val.Rows
	if gates.Val.Rows != batch || gates.Val.Cols != 4*hd {
		panic(fmt.Sprintf("tensor: LSTMCell gates %s incompatible with state %s",
			gates.Val.shape(), cPrev.Val.shape()))
	}
	// acts stores the activated gates in the same [i, f, g, o] layout; tc
	// stores tanh(c). Both are needed by the fused backward.
	acts := t.getMat(batch, 4*hd, false)
	cVal := t.getMat(batch, hd, false)
	tc := t.getMat(batch, hd, false)
	hVal := t.getMat(batch, hd, false)
	for r := 0; r < batch; r++ {
		lstmCellRow(acts.Row(r), cVal.Row(r), tc.Row(r), hVal.Row(r), gates.Val.Row(r), cPrev.Val.Row(r))
	}
	if !gates.requiresGrad && !cPrev.requiresGrad {
		return t.Const(hVal), t.Const(cVal)
	}
	// cn, not the named result c, is what the closure captures: a result
	// variable captured by an escaping closure moves to the heap on every
	// call, including the early return above.
	cn := t.allocNode()
	cn.Val = cVal
	cn.requiresGrad = true
	h = t.record(hVal, func(n *Node) {
		dh := n.Grad
		dc := cn.Grad
		var gg, cpg *Mat
		if gates.requiresGrad {
			gg = gates.ensureGrad()
		}
		if cPrev.requiresGrad {
			cpg = cPrev.ensureGrad()
		}
		for r := 0; r < batch; r++ {
			var ggrow, cpgrow []float32
			if gg != nil {
				ggrow = gg.Row(r)
			}
			if cpg != nil {
				cpgrow = cpg.Row(r)
			}
			lstmCellBackRow(ggrow, cpgrow, acts.Row(r), tc.Row(r), cPrev.Val.Row(r), dh.Row(r), dc.Row(r))
		}
	})
	// Pre-allocate both output gradients (zeroed, like the lazily ensured
	// buffers of the unfused chain) so the fused backward can read dc
	// unconditionally even when the last timestep's c is unused.
	h.ensureGrad()
	cn.ensureGrad()
	return h, cn
}

// lstmCellRow is one row of LSTMCell's forward: from the gate row gates
// and cPrev's row cprev it sets the activated gates acts, c, tanh(c) and
// h, over hd = len(c) columns, one pass over the row each for the gate
// activations (sigmoidRow/tanhRow), c, tanh(c) and h. Where the host has
// AVX-512F and FMA, lstmCellAVX512 computes a row whose width is a
// multiple of 8 in one pass with the same roundings, unless a lane is
// outside its activations' fast branches; then the row runs here.
func lstmCellRow(acts, c, tc, h, gates, cprev []float32) {
	hd := len(c)
	if useAVX512 && useAVX2FMA && hd > 0 && hd&7 == 0 {
		// The assembly checks no bounds, so check its last reads and
		// writes here.
		_, _, _, _, _ = acts[4*hd-1], gates[4*hd-1], tc[hd-1], h[hd-1], cprev[hd-1]
		if lstmCellAVX512(acts, c, tc, h, gates, cprev) {
			return
		}
	}
	sigmoidRow(acts[:2*hd], gates[:2*hd])
	tanhRow(acts[2*hd:3*hd], gates[2*hd:3*hd])
	sigmoidRow(acts[3*hd:4*hd], gates[3*hd:4*hd])
	iv, fv, gv, ov := acts[:hd], acts[hd:2*hd], acts[2*hd:3*hd], acts[3*hd:4*hd]
	for j := range c {
		c[j] = float32(fv[j]*cprev[j]) + float32(iv[j]*gv[j])
	}
	tanhRow(tc[:hd], c)
	for j := range hd {
		h[j] = ov[j] * tc[j]
	}
}

// lstmCellBackRow is one row of LSTMCell's backward: it adds the row's
// gradients into gg, the gates' gradient row, and cpg, cPrev's, either of
// which may be nil, from the activated gates acts ([i, f, g, o] blocks of
// hd = len(tc)), tanh(c), cPrev and the upstream gradients dh and dc.
// Where gg is set, lstmCellBackAVX2 takes the elements below the last
// multiple of 8 on AVX2 hosts, and lstmCellBackScalar the rest.
func lstmCellBackRow(gg, cpg, acts, tc, cprev, dh, dc []float32) {
	hd := len(tc)
	j := 0
	if useAVX2 && gg != nil && hd >= 8 {
		// The assembly checks no bounds, so check its last reads here.
		_, _, _, _, _ = gg[4*hd-1], acts[4*hd-1], cprev[hd-1], dh[hd-1], dc[hd-1]
		if cpg != nil {
			_ = cpg[hd-1]
		}
		lstmCellBackAVX2(gg, cpg, acts, tc, cprev, dh, dc)
		j = hd &^ 7
	}
	lstmCellBackScalar(gg, cpg, acts, tc, cprev, dh, dc, j)
}

// lstmCellBackScalar is lstmCellBackRow's loop for the elements from j on,
// and the reference its vector code must match bit for bit.
func lstmCellBackScalar(gg, cpg, acts, tc, cprev, dh, dc []float32, j int) {
	hd := len(tc)
	for ; j < hd; j++ {
		iv, fv, gv, ov := acts[j], acts[hd+j], acts[2*hd+j], acts[3*hd+j]
		tcv := tc[j]
		hG := dh[j]
		// Same per-element products, in the same order, as the unfused
		// node chain's backward (Mul → Tanh → Add → Mul×2 → Sigmoid/Tanh
		// → SliceCols).
		oG := hG * tcv
		tcG := hG * ov
		cG := dc[j] + float32(tcG*(1-float32(tcv*tcv)))
		if cpg != nil {
			cpg[j] += float32(cG * fv)
		}
		if gg != nil {
			iG := cG * gv
			gG := cG * iv
			fG := cG * cprev[j]
			gg[j] += float32(iG * iv * (1 - iv))
			gg[hd+j] += float32(fG * fv * (1 - fv))
			gg[2*hd+j] += float32(gG * (1 - float32(gv*gv)))
			gg[3*hd+j] += float32(oG * ov * (1 - ov))
		}
	}
}

// DropoutMask applies a precomputed inverted-dropout mask (entries are 0 or
// 1/keep). The mask is supplied by the caller so randomness stays outside
// the tape and tests remain deterministic.
func (t *Tape) DropoutMask(a *Node, mask *Mat) *Node {
	if !a.Val.SameShape(mask) {
		panic("tensor: DropoutMask shape mismatch")
	}
	out := t.getMat(a.Val.Rows, a.Val.Cols, false)
	for i, v := range a.Val.Data {
		out.Data[i] = v * mask.Data[i]
	}
	if !a.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		g := a.ensureGrad()
		for i, gv := range n.Grad.Data {
			g.Data[i] += float32(gv * mask.Data[i])
		}
	})
}

// MeanAll returns the scalar mean of all elements (1×1 node).
func (t *Tape) MeanAll(a *Node) *Node {
	out := t.getMat(1, 1, false)
	var s float64
	for _, v := range a.Val.Data {
		s += float64(v)
	}
	cnt := float32(len(a.Val.Data))
	out.Data[0] = float32(s) / cnt
	if !a.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		g := a.ensureGrad()
		gv := n.Grad.Data[0] / cnt
		for i := range g.Data {
			g.Data[i] += gv
		}
	})
}

// SumAll returns the scalar sum of all elements (1×1 node).
func (t *Tape) SumAll(a *Node) *Node {
	out := t.getMat(1, 1, false)
	var s float64
	for _, v := range a.Val.Data {
		s += float64(v)
	}
	out.Data[0] = float32(s)
	if !a.requiresGrad {
		return t.Const(out)
	}
	return t.record(out, func(n *Node) {
		g := a.ensureGrad()
		gv := n.Grad.Data[0]
		for i := range g.Data {
			g.Data[i] += gv
		}
	})
}
