package nn

import (
	"math/rand"
	"testing"

	"voyager/internal/tensor"
)

func TestShadowCloneSharesWeightsOwnsGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewParam("w", 3, 4)
	p.W.Glorot(rng)
	s := p.ShadowClone()
	if s.W != p.W {
		t.Fatalf("shadow must alias the master weight matrix")
	}
	if s.Grad != nil {
		t.Fatalf("shadow must allocate no gradient buffer before EnsureGrad")
	}
	s.EnsureGrad()
	if s.Grad == p.Grad {
		t.Fatalf("shadow must own its gradient buffer")
	}
	s.Grad.Fill(1)
	for _, v := range p.Grad.Data {
		if v != 0 {
			t.Fatalf("shadow gradient leaked into master")
		}
	}
}

func TestMergeGradDense(t *testing.T) {
	p := NewParam("w", 2, 2)
	s := p.ShadowClone()
	s.EnsureGrad()
	p.Grad.Fill(1)
	s.Grad.Fill(2)
	p.MergeGrad(s)
	for _, v := range p.Grad.Data {
		if v != 3 {
			t.Fatalf("merged grad %v want 3", v)
		}
	}
	for _, v := range s.Grad.Data {
		if v != 0 {
			t.Fatalf("shadow grad not cleared: %v", v)
		}
	}
}

func TestMergeGradSparseTouchedRows(t *testing.T) {
	p := NewSparseParam("emb", 5, 3)
	s := p.ShadowClone()
	s.EnsureGrad()
	if !s.Sparse() {
		t.Fatalf("shadow of sparse param must be sparse")
	}
	// Master touched row 1; shadow touched rows 1 and 4.
	for i := range p.Grad.Row(1) {
		p.Grad.Row(1)[i] = 1
	}
	p.Touch(1)
	for i := range s.Grad.Row(1) {
		s.Grad.Row(1)[i] = 2
	}
	s.Touch(1)
	for i := range s.Grad.Row(4) {
		s.Grad.Row(4)[i] = 5
	}
	s.Touch(4)

	p.MergeGrad(s)
	for _, v := range p.Grad.Row(1) {
		if v != 3 {
			t.Fatalf("row 1 merged grad %v want 3", v)
		}
	}
	for _, v := range p.Grad.Row(4) {
		if v != 5 {
			t.Fatalf("row 4 merged grad %v want 5", v)
		}
	}
	if len(s.touched) != 0 {
		t.Fatalf("shadow touched set not cleared")
	}
	if _, ok := p.touched[4]; !ok {
		t.Fatalf("master must mark merged rows touched")
	}
	// ZeroGrad on the master must clear both rows (it only walks touched).
	p.ZeroGrad()
	for r := 0; r < 5; r++ {
		for _, v := range p.Grad.Row(r) {
			if v != 0 {
				t.Fatalf("row %d not cleared after ZeroGrad", r)
			}
		}
	}
}

// A worker training through shadow layers must produce the same gradients as
// the master layers would, and merging must deliver them to the master.
func TestShadowLayersGradientEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	emb := NewEmbedding("emb", 6, 4, rng)
	lin := NewLinear("lin", 4, 3, rng)
	ids := []int{1, 3, 3, 5}
	pos := [][]int{{0}, {1}, {2}, {0}}

	run := func(e *Embedding, l *Linear) float32 {
		tp := tensor.NewTape()
		h := e.Lookup(tp, ids)
		logits := l.Forward(tp, h)
		loss, _ := tp.SigmoidBCEMulti(logits, pos)
		tp.Backward(loss)
		return loss.Val.Data[0]
	}

	wantLoss := run(emb, lin)
	wantWG := lin.W.Grad.Clone()
	wantEG := emb.Table.Grad.Clone()
	lin.W.ZeroGrad()
	lin.B.ZeroGrad()
	emb.Table.ZeroGrad()

	se, sl := emb.ShadowClone(), lin.ShadowClone()
	for _, p := range []*Param{se.Table, sl.W, sl.B} {
		p.EnsureGrad()
	}
	gotLoss := run(se, sl)
	if gotLoss != wantLoss {
		t.Fatalf("shadow loss %v want %v", gotLoss, wantLoss)
	}
	// Master grads untouched until merge.
	for _, v := range lin.W.Grad.Data {
		if v != 0 {
			t.Fatalf("master grad written before merge")
		}
	}
	lin.W.MergeGrad(sl.W)
	lin.B.MergeGrad(sl.B)
	emb.Table.MergeGrad(se.Table)
	for i, v := range lin.W.Grad.Data {
		if v != wantWG.Data[i] {
			t.Fatalf("merged W grad [%d] = %v want %v", i, v, wantWG.Data[i])
		}
	}
	for i, v := range emb.Table.Grad.Data {
		if v != wantEG.Data[i] {
			t.Fatalf("merged embedding grad [%d] = %v want %v", i, v, wantEG.Data[i])
		}
	}
}

// A shadow that missed EnsureGrad must fail loudly on a gradient tape,
// not write its gradients into tape scratch that Reset discards, and must
// still run inference on a NoGrad tape, where serving replicas use it.
func TestShadowWithoutGradPanicsOnGradientTape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lin := NewLinear("lin", 4, 3, rng)
	x := tensor.NewMat(2, 4)
	x.Fill(0.5)

	s := lin.ShadowClone()
	tp := tensor.NewTape()
	tp.NoGrad = true
	got, want := s.Forward(tp, tp.Const(x)).Val, lin.Forward(tp, tp.Const(x)).Val
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("NoGrad shadow forward %v want %v", got.Data, want.Data)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("Forward plus Backward of a shadow without EnsureGrad did not panic")
		}
		if s.W.Grad != nil || s.B.Grad != nil {
			t.Fatalf("shadow gained a gradient buffer without EnsureGrad")
		}
	}()
	tp.Reset()
	y := s.Forward(tp, tp.Const(x))
	tp.Backward(tp.SumAll(y))
}
