package tensor

import (
	"fmt"
	"math"
)

// SoftmaxRows computes a row-wise softmax of m into a new matrix, with the
// usual max-subtraction for numerical stability.
func SoftmaxRows(m *Mat) *Mat {
	out := NewMat(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		softmaxRow(out.Row(r), m.Row(r))
	}
	return out
}

func softmaxRow(dst, src []float32) {
	mx := src[0]
	for _, v := range src[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range src {
		e := exp64(float64(v - mx))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// SoftmaxCrossEntropy is a fused softmax + cross-entropy loss over rows of
// logits. targets[r] is the class index for row r. It returns the mean loss
// (1×1 node) and, for inspection, the softmax probabilities.
func (t *Tape) SoftmaxCrossEntropy(logits *Node, targets []int) (*Node, *Mat) {
	if len(targets) != logits.Val.Rows {
		panic(fmt.Sprintf("tensor: SoftmaxCrossEntropy %d targets for %d rows", len(targets), logits.Val.Rows))
	}
	probs := t.getMat(logits.Val.Rows, logits.Val.Cols, false)
	for r := 0; r < logits.Val.Rows; r++ {
		softmaxRow(probs.Row(r), logits.Val.Row(r))
	}
	loss := t.getMat(1, 1, false)
	var total float64
	for r, cls := range targets {
		if cls < 0 || cls >= logits.Val.Cols {
			panic(fmt.Sprintf("tensor: SoftmaxCrossEntropy target %d out of range [0,%d)", cls, logits.Val.Cols))
		}
		p := float64(probs.At(r, cls))
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(p)
	}
	n := float32(len(targets))
	loss.Data[0] = float32(total) / n
	if !logits.requiresGrad {
		return t.Const(loss), probs
	}
	out := t.record(loss, func(nd *Node) {
		g := logits.ensureGrad()
		scale := nd.Grad.Data[0] / n
		for r := 0; r < probs.Rows; r++ {
			grow := g.Row(r)
			prow := probs.Row(r)
			cls := targets[r]
			for c, p := range prow {
				d := p
				if c == cls {
					d -= 1
				}
				grow[c] += scale * d
			}
		}
	})
	return out, probs
}

// SigmoidBCEMulti is a fused sigmoid + binary-cross-entropy loss for
// multi-label classification (paper §4.4). positives[r] lists the classes
// labeled 1 for row r (possibly empty); every other class is labeled 0.
// It returns the mean loss over all (row, class) cells and the sigmoid
// probabilities.
func (t *Tape) SigmoidBCEMulti(logits *Node, positives [][]int) (*Node, *Mat) {
	return t.SigmoidBCEWeighted(logits, positives, nil)
}

// SigmoidBCEWeighted is SigmoidBCEMulti with per-label soft targets:
// weights[r][k] ∈ (0, 1] is the target value for class positives[r][k]
// (nil weights mean 1 everywhere). Soft targets let a multi-label trainer
// rank a primary label above secondary ones, which keeps independently
// predicted heads (pages and offsets) pair-consistent.
func (t *Tape) SigmoidBCEWeighted(logits *Node, positives [][]int, weights [][]float32) (*Node, *Mat) {
	if len(positives) != logits.Val.Rows {
		panic(fmt.Sprintf("tensor: SigmoidBCEWeighted %d label sets for %d rows", len(positives), logits.Val.Rows))
	}
	if weights != nil && len(weights) != len(positives) {
		panic("tensor: SigmoidBCEWeighted weights/positives length mismatch")
	}
	rows, cols := logits.Val.Rows, logits.Val.Cols
	probs := t.getMat(rows, cols, false)
	target := t.NewMat(1, cols).Data
	setTargets := func(r int) {
		for k, c := range positives[r] {
			if c < 0 || c >= cols {
				panic(fmt.Sprintf("tensor: SigmoidBCEWeighted label %d out of range [0,%d)", c, cols))
			}
			w := float32(1)
			if weights != nil && weights[r] != nil {
				w = weights[r][k]
			}
			if w > target[c] {
				target[c] = w
			}
		}
	}
	clearTargets := func(r int) {
		for _, c := range positives[r] {
			target[c] = 0
		}
	}
	// Positive cells are boosted so each row's positive gradient mass
	// roughly balances its negative mass. With one positive among
	// thousands of classes, unbalanced BCE drives the network toward the
	// label marginal long before any input conditioning emerges.
	posBoost := func(npos int) float32 {
		if npos == 0 {
			return 1
		}
		b := float32(cols-npos) / float32(npos)
		if b < 1 {
			return 1
		}
		if b > 64 {
			return 64
		}
		return b
	}
	// Numerically stable BCE with soft target y:
	// loss = log(1+e^-|x|) + max(x,0) - x*y. bceTermRow writes each
	// logit's log(1+e^-|x|) into terms; the loop adds the rest, applies
	// the boost and accumulates one float64 sum in row-major order.
	if cap(t.terms) < cols {
		t.terms = make([]float64, cols)
	}
	terms := t.terms[:cols]
	var total float64
	for r := 0; r < rows; r++ {
		prow := probs.Row(r)
		lrow := logits.Val.Row(r)
		setTargets(r)
		boost := posBoost(len(positives[r]))
		sigmoidRow(prow, lrow)
		bceTermRow(terms, lrow)
		for c, x := range lrow {
			l := terms[c]
			if x > 0 {
				l += float64(x)
			}
			l -= float64(float64(x) * float64(target[c]))
			if target[c] > 0 {
				l *= float64(boost)
			}
			total += l
		}
		clearTargets(r)
	}
	n := float32(rows * cols)
	loss := t.getMat(1, 1, false)
	loss.Data[0] = float32(total) / n
	if !logits.requiresGrad {
		return t.Const(loss), probs
	}
	out := t.record(loss, func(nd *Node) {
		g := logits.ensureGrad()
		scale := nd.Grad.Data[0] / n
		for r := 0; r < rows; r++ {
			grow := g.Row(r)
			prow := probs.Row(r)
			setTargets(r)
			boost := posBoost(len(positives[r]))
			for c, p := range prow {
				d := scale * (p - target[c])
				if target[c] > 0 {
					d *= boost
				}
				grow[c] += d
			}
			clearTargets(r)
		}
	})
	return out, probs
}

// MoEAttention implements the paper's page-aware offset embedding
// (Equations 9–10): the query (page embedding, B×D) attends over n expert
// chunks of the offset embedding (B×(n·D)); the output is the
// attention-weighted sum of the chunks (B×D). scale is the paper's scaling
// factor f ∈ (0, 1].
//
// The returned weights matrix (B×n) holds the softmax attention
// probabilities for inspection and testing.
func (t *Tape) MoEAttention(query, experts *Node, scale float32) (*Node, *Mat) {
	b := query.Val.Rows
	d := query.Val.Cols
	if experts.Val.Rows != b {
		panic("tensor: MoEAttention batch mismatch")
	}
	if experts.Val.Cols%d != 0 {
		panic(fmt.Sprintf("tensor: MoEAttention expert width %d not a multiple of query width %d", experts.Val.Cols, d))
	}
	n := experts.Val.Cols / d
	weights := t.getMat(b, n, false)
	scores := t.getMat(b, n, false)
	out := t.NewMat(b, d)
	for r := 0; r < b; r++ {
		q := query.Val.Row(r)
		e := experts.Val.Row(r)
		srow := scores.Row(r)
		for s := 0; s < n; s++ {
			chunk := e[s*d : (s+1)*d]
			var dot float32
			for i, qv := range q {
				dot += qv * chunk[i]
			}
			srow[s] = scale * dot
		}
		wrow := weights.Row(r)
		softmaxRow(wrow, srow)
		orow := out.Row(r)
		for s := 0; s < n; s++ {
			w := wrow[s]
			chunk := e[s*d : (s+1)*d]
			for i, cv := range chunk {
				orow[i] += w * cv
			}
		}
	}
	if !query.requiresGrad && !experts.requiresGrad {
		return t.Const(out), weights
	}
	node := t.record(out, func(nd *Node) {
		// Let a = softmax(f·q·kᵀ), out = Σ_s a_s k_s.
		// dL/dk_s = a_s·dout + (dL/da_s)·(softmax jac)·f·q
		// dL/dq   = Σ_s (dL/dscore_s)·f·k_s
		qGrad := query.requiresGrad
		eGrad := experts.requiresGrad
		dA := t.getMat(1, n, false).Data
		dScore := t.getMat(1, n, false).Data
		for r := 0; r < b; r++ {
			gout := nd.Grad.Row(r)
			wrow := weights.Row(r)
			e := experts.Val.Row(r)
			q := query.Val.Row(r)

			// dL/da_s = dot(gout, k_s)
			for s := 0; s < n; s++ {
				chunk := e[s*d : (s+1)*d]
				var dot float32
				for i, gv := range gout {
					dot += gv * chunk[i]
				}
				dA[s] = dot
			}
			// Softmax backward: dScore_s = a_s (dA_s - Σ_j a_j dA_j).
			var inner float32
			for s := 0; s < n; s++ {
				inner += wrow[s] * dA[s]
			}
			for s := 0; s < n; s++ {
				dScore[s] = wrow[s] * (dA[s] - inner) * scale
			}
			if qGrad {
				gq := query.ensureGrad().Row(r)
				for s := 0; s < n; s++ {
					ds := dScore[s]
					if ds == 0 {
						continue
					}
					chunk := e[s*d : (s+1)*d]
					for i, cv := range chunk {
						gq[i] += ds * cv
					}
				}
			}
			if eGrad {
				ge := experts.ensureGrad().Row(r)
				for s := 0; s < n; s++ {
					gchunk := ge[s*d : (s+1)*d]
					w := wrow[s]
					ds := dScore[s]
					for i := range gchunk {
						gchunk[i] += w*gout[i] + ds*q[i]
					}
				}
			}
		}
	})
	return node, weights
}
