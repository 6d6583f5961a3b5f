// Package nn provides the neural-network building blocks used by the
// Voyager prefetcher and the Delta-LSTM baseline: embeddings with sparse
// gradient updates, an LSTM cell, linear layers, dropout, and the Adam
// optimizer with learning-rate decay. All layers operate on a
// tensor.Tape so gradients come from reverse-mode autodiff.
package nn

import (
	"fmt"
	"math/rand"

	"voyager/internal/tensor"
)

// Param is a trainable weight matrix with gradient storage.
//
// Dense params accumulate gradients over the whole matrix each step.
// Sparse params (embedding tables) additionally track which rows were
// touched so the optimizer can skip untouched rows.
type Param struct {
	Name string
	W    *tensor.Mat
	Grad *tensor.Mat

	sparse  bool
	touched map[int]struct{}
}

// NewParam returns a dense parameter of the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		W:    tensor.NewMat(rows, cols),
		Grad: tensor.NewMat(rows, cols),
	}
}

// NewSparseParam returns a parameter whose gradient is sparse by rows
// (embedding tables).
func NewSparseParam(name string, rows, cols int) *Param {
	p := NewParam(name, rows, cols)
	p.sparse = true
	p.touched = make(map[int]struct{})
	return p
}

// Sparse reports whether the parameter uses row-sparse updates.
func (p *Param) Sparse() bool { return p.sparse }

// Touch marks row r as having received gradient this step.
func (p *Param) Touch(r int) {
	if p.sparse {
		p.touched[r] = struct{}{}
	}
}

// ZeroGrad clears accumulated gradients. Sparse params only clear touched
// rows (and the touched set), keeping the cost proportional to batch size
// rather than vocabulary size.
func (p *Param) ZeroGrad() {
	if p.sparse {
		//lint:ignore maporder zeroing disjoint rows and clearing the set; no effect depends on order
		for r := range p.touched {
			row := p.Grad.Row(r)
			for i := range row {
				row[i] = 0
			}
			delete(p.touched, r)
		}
		return
	}
	p.Grad.Zero()
}

// Size returns the number of scalar weights.
func (p *Param) Size() int { return p.W.Rows * p.W.Cols }

// ShadowClone returns a parameter that shares p's weight matrix and has no
// gradient storage until EnsureGrad gives it its own (and, for sparse
// params, a fresh touched set). Shadows are the per-worker gradient
// buffers for data-parallel training: every worker backpropagates into its
// own shadow, then the shadows are folded into the master with MergeGrad
// in fixed worker order. A shadow that only runs inference never carries a
// buffer as large as its weights.
func (p *Param) ShadowClone() *Param {
	s := &Param{Name: p.Name, W: p.W, sparse: p.sparse}
	if p.sparse {
		s.touched = make(map[int]struct{})
	}
	return s
}

// EnsureGrad allocates p's zeroed gradient buffer if it has none.
func (p *Param) EnsureGrad() {
	if p.Grad == nil {
		p.Grad = tensor.NewMat(p.W.Rows, p.W.Cols)
	}
}

// MergeGrad accumulates o's gradient into p's and clears o for reuse.
// Callers reduce workers in ascending index order so the float32 summation
// order — and therefore training — is reproducible at a fixed worker count.
// Sparse params merge only o's touched rows, and mark them touched on p.
func (p *Param) MergeGrad(o *Param) {
	if p.sparse {
		//lint:ignore maporder each row is merged independently; summation happens within a row, not across the range
		for r := range o.touched {
			prow := p.Grad.Row(r)
			orow := o.Grad.Row(r)
			for i, v := range orow {
				prow[i] += v
				orow[i] = 0
			}
			p.touched[r] = struct{}{}
			delete(o.touched, r)
		}
		return
	}
	pd, od := p.Grad.Data, o.Grad.Data
	for i, v := range od {
		pd[i] += v
		od[i] = 0
	}
}

// Node wraps the parameter for use on a tape; gradients accumulate into
// p.Grad via the shared matrix. On a gradient tape p must have a Grad: a
// shadow that missed EnsureGrad panics here rather than letting the tape
// give its gradients scratch space that Reset throws away.
func (p *Param) Node(tp *tensor.Tape) *tensor.Node {
	if p.Grad == nil && !tp.NoGrad {
		panic("nn: param " + p.Name + " has no gradient buffer on a gradient tape (shadow without EnsureGrad)")
	}
	n := tp.Param(p.W)
	n.Grad = p.Grad
	return n
}

// ParamSet is an ordered collection of parameters (a model's weights).
type ParamSet struct {
	list []*Param
}

// Add registers params and returns the set for chaining.
func (s *ParamSet) Add(params ...*Param) *ParamSet {
	s.list = append(s.list, params...)
	return s
}

// All returns the registered parameters in registration order.
func (s *ParamSet) All() []*Param { return s.list }

// ZeroGrad clears every parameter's gradient.
func (s *ParamSet) ZeroGrad() {
	for _, p := range s.list {
		p.ZeroGrad()
	}
}

// Count returns the total number of scalar weights across the set.
func (s *ParamSet) Count() int {
	n := 0
	for _, p := range s.list {
		n += p.Size()
	}
	return n
}

// Bytes returns the storage footprint at the given precision (bits per
// weight), e.g. 32 for fp32 or 8 for the paper's quantized deployment.
func (s *ParamSet) Bytes(bitsPerWeight int) int {
	return s.Count() * bitsPerWeight / 8
}

// ByName returns the parameter with the given name, or nil.
func (s *ParamSet) ByName(name string) *Param {
	for _, p := range s.list {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// GradCheckFinite panics if any gradient is NaN/Inf; used in tests and as a
// training-time invariant.
func (s *ParamSet) GradCheckFinite() error {
	for _, p := range s.list {
		for i, v := range p.Grad.Data {
			if v != v || v > 1e30 || v < -1e30 {
				return fmt.Errorf("nn: non-finite gradient in %s at %d: %v", p.Name, i, v)
			}
		}
	}
	return nil
}

// InitGlorot initializes every parameter with Glorot-uniform noise, except
// parameters whose name ends in ".b" (biases), which stay zero.
func (s *ParamSet) InitGlorot(rng *rand.Rand) {
	for _, p := range s.list {
		if len(p.Name) >= 2 && p.Name[len(p.Name)-2:] == ".b" {
			continue
		}
		p.W.Glorot(rng)
	}
}
