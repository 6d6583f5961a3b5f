package nn

import (
	"math"

	"voyager/internal/tensor"
	"voyager/internal/tracing"
)

// Adam implements the Adam optimizer (Kingma & Ba) with optional row-sparse
// updates for embedding tables and multiplicative learning-rate decay
// (the paper trains Voyager with Adam, lr 0.001, decay ratio 2).
type Adam struct {
	LR      float32
	Beta1   float32
	Beta2   float32
	Eps     float32
	Clip    float32 // max gradient magnitude per element; 0 disables clipping
	DecayBy float32 // learning-rate decay ratio applied by Decay(); 0 means 2

	// Track is the optional execution-span row for the optimizer: when set,
	// Step records an "adam_step" span on it (nil stays silent).
	Track *tracing.Track

	states map[*Param]*adamState
}

type adamState struct {
	m, v *tensor.Mat
	t    int   // dense step count
	rowT []int // per-row step counts for sparse params
}

// NewAdam returns an Adam optimizer with the paper's defaults: lr as given,
// β1=0.9, β2=0.999, ε=1e-8, gradient clipping at 5, decay ratio 2.
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Eps:     1e-8,
		Clip:    5,
		DecayBy: 2,
		states:  make(map[*Param]*adamState),
	}
}

func (a *Adam) state(p *Param) *adamState {
	st, ok := a.states[p]
	if !ok {
		st = &adamState{
			m: tensor.NewMat(p.W.Rows, p.W.Cols),
			v: tensor.NewMat(p.W.Rows, p.W.Cols),
		}
		if p.sparse {
			st.rowT = make([]int, p.W.Rows)
		}
		a.states[p] = st
	}
	return st
}

// Step applies one Adam update to every parameter and clears gradients.
func (a *Adam) Step(params []*Param) {
	sp := a.Track.Begin("adam_step")
	defer sp.End()
	for _, p := range params {
		st := a.state(p)
		if p.sparse {
			a.stepSparse(p, st)
		} else {
			a.stepDense(p, st)
		}
		p.ZeroGrad()
	}
}

func (a *Adam) stepDense(p *Param, st *adamState) {
	st.t++
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(st.t)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(st.t)))
	a.updateSlice(p.W.Data, p.Grad.Data, st.m.Data, st.v.Data, bc1, bc2)
}

func (a *Adam) stepSparse(p *Param, st *adamState) {
	//lint:ignore maporder per-row Adam state is independent; updates commute across rows
	for r := range p.touched {
		st.rowT[r]++
		t := st.rowT[r]
		bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(t)))
		bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(t)))
		a.updateSlice(p.W.Row(r), p.Grad.Row(r), st.m.Row(r), st.v.Row(r), bc1, bc2)
	}
}

// updateSlice runs one Adam update over w: tensor.AdamUpdate takes the
// elements it can on vector code, and updateScalar the rest, with the
// same roundings.
func (a *Adam) updateSlice(w, g, m, v []float32, bc1, bc2 float32) {
	clip := a.Clip
	if !(clip > 0) {
		clip = float32(math.Inf(1)) // no clipping, as in updateScalar
	}
	n := tensor.AdamUpdate(w, g, m, v, &tensor.AdamCoeffs{
		LR: a.LR, Beta1: a.Beta1, OneMinusBeta1: 1 - a.Beta1, Beta2: a.Beta2,
		OneMinusBeta2: 1 - a.Beta2, Eps: a.Eps, Clip: clip, BC1: bc1, BC2: bc2,
	})
	a.updateScalar(w[n:], g[n:], m[n:], v[n:], bc1, bc2)
}

// updateScalar is Adam's per-element update, and the reference the vector
// code must match bit for bit.
func (a *Adam) updateScalar(w, g, m, v []float32, bc1, bc2 float32) {
	lr := a.LR
	for i := range w {
		gi := g[i]
		if a.Clip > 0 {
			if gi > a.Clip {
				gi = a.Clip
			} else if gi < -a.Clip {
				gi = -a.Clip
			}
		}
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
		mh := m[i] / bc1
		vh := v[i] / bc2
		w[i] -= lr * mh / (float32(math.Sqrt(float64(vh))) + a.Eps)
	}
}

// Decay divides the learning rate by the configured decay ratio; the paper
// applies this between training epochs.
func (a *Adam) Decay() {
	d := a.DecayBy
	if d == 0 {
		d = 2
	}
	a.LR /= d
}
