package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"voyager/internal/tensor"
)

// indefiniteNaN is the NaN x86 makes for 0·Inf and Inf−Inf. Inputs that
// carry only this NaN give one answer whichever operand order a compiler
// picks, so the bits compared below are defined (see tensor's kernel
// tests).
var indefiniteNaN = math.Float32frombits(0xffc00000)

// adamSpecials are values an Adam input can take that the vector code
// must round like the scalar loop: zeros of both signs, subnormals,
// non-finite values, values at and around the clip bound, and magnitudes
// whose squares overflow.
var adamSpecials = []float32{
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), float32(math.Inf(1)), float32(math.Inf(-1)), indefiniteNaN,
	5, -5, math.Nextafter32(5, 6), math.Nextafter32(-5, -6), 1e30, -1e30, math.MaxFloat32,
}

// randAdamSlice returns n normal values with about one in five replaced by
// one of adamSpecials; nonNeg makes every number non-negative, as v is.
func randAdamSlice(rng *rand.Rand, n int, nonNeg bool) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
		if rng.Intn(5) == 0 {
			s[i] = adamSpecials[rng.Intn(len(adamSpecials))]
		}
		if nonNeg && s[i] < 0 {
			s[i] = -s[i] // NaN stays the indefinite NaN
		}
	}
	return s
}

// checkBits fails the test at the first element whose bits differ.
func checkBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d of %d: got %v [%#08x], want %v [%#08x]", name, i, len(want),
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestAdamUpdateMatchesScalar holds updateSlice, vector code and scalar
// tail, to updateScalar over the whole slice, bit for bit: every length
// up to 19, clipping on and off (Clip 0, negative and NaN all mean off),
// on weights, gradients, moments and bias corrections with special values.
func TestAdamUpdateMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, clip := range []float32{5, 0, -1, indefiniteNaN} {
		for n := 0; n <= 19; n++ {
			for trial := range 40 {
				a := NewAdam(0.01)
				a.Clip = clip
				w, g := randAdamSlice(rng, n, false), randAdamSlice(rng, n, false)
				m, v := randAdamSlice(rng, n, false), randAdamSlice(rng, n, trial%2 == 0)
				bc1, bc2 := 1-float32(math.Pow(0.9, float64(1+trial))), 1-float32(math.Pow(0.999, float64(1+trial)))
				if trial%8 == 7 {
					bc1, bc2 = adamSpecials[rng.Intn(len(adamSpecials))], adamSpecials[rng.Intn(len(adamSpecials))]
				}
				wantW, wantM, wantV := append([]float32(nil), w...), append([]float32(nil), m...), append([]float32(nil), v...)
				a.updateSlice(w, g, m, v, bc1, bc2)
				a.updateScalar(wantW, g, wantM, wantV, bc1, bc2)
				name := fmt.Sprintf("clip %v n %d trial %d", clip, n, trial)
				checkBits(t, name+" w", w, wantW)
				checkBits(t, name+" m", m, wantM)
				checkBits(t, name+" v", v, wantV)
			}
		}
	}
}

// TestAdamStepMatchesScalar runs Adam.Step over a dense and a sparse
// parameter for three steps, clipping on and off, and holds the weights
// and moments to updateScalar applied as Step applies it: the dense
// parameter whole, the sparse one row by touched row, each row with its
// own step count. Row widths up to 19 put the sparse rows on the vector
// code and its tail.
func TestAdamStepMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	corrections := func(a *Adam, step int) (float32, float32) {
		return 1 - float32(math.Pow(float64(a.Beta1), float64(step))),
			1 - float32(math.Pow(float64(a.Beta2), float64(step)))
	}
	for _, clip := range []float32{5, 0} {
		for cols := 1; cols <= 19; cols++ {
			opt := NewAdam(0.01)
			opt.Clip = clip
			dense, sparse := NewParam("dense", 3, cols), NewSparseParam("sparse", 4, cols)
			copy(dense.W.Data, randAdamSlice(rng, len(dense.W.Data), false))
			copy(sparse.W.Data, randAdamSlice(rng, len(sparse.W.Data), false))
			wantD, wantS := dense.W.Clone(), sparse.W.Clone()
			mD, vD := tensor.NewMat(3, cols), tensor.NewMat(3, cols)
			mS, vS := tensor.NewMat(4, cols), tensor.NewMat(4, cols)
			rowT := make([]int, 4)
			for step := 1; step <= 3; step++ {
				copy(dense.Grad.Data, randAdamSlice(rng, len(dense.Grad.Data), false))
				var touched []int
				for r := range 4 {
					if rng.Intn(2) == 0 {
						copy(sparse.Grad.Row(r), randAdamSlice(rng, cols, false))
						sparse.Touch(r)
						touched = append(touched, r)
					}
				}
				gD, gS := dense.Grad.Clone(), sparse.Grad.Clone()
				opt.Step([]*Param{dense, sparse})

				bc1, bc2 := corrections(opt, step)
				opt.updateScalar(wantD.Data, gD.Data, mD.Data, vD.Data, bc1, bc2)
				for _, r := range touched {
					rowT[r]++
					bc1, bc2 := corrections(opt, rowT[r])
					opt.updateScalar(wantS.Row(r), gS.Row(r), mS.Row(r), vS.Row(r), bc1, bc2)
				}
				name := fmt.Sprintf("clip %v cols %d step %d", clip, cols, step)
				checkBits(t, name+" dense w", dense.W.Data, wantD.Data)
				checkBits(t, name+" dense m", opt.states[dense].m.Data, mD.Data)
				checkBits(t, name+" dense v", opt.states[dense].v.Data, vD.Data)
				checkBits(t, name+" sparse w", sparse.W.Data, wantS.Data)
				checkBits(t, name+" sparse m", opt.states[sparse].m.Data, mS.Data)
				checkBits(t, name+" sparse v", opt.states[sparse].v.Data, vS.Data)
			}
		}
	}
}
