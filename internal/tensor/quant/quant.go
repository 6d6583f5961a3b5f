// Package quant provides inference-only quantized weight matrices and the
// matmul kernels that consume them: int8 with per-column symmetric scales
// (4× smaller weights, the format behind voyager's quantized-predict mode)
// and IEEE binary16 (2× smaller, higher fidelity). Quantization is weight-
// only: activations stay float32 and the kernels dequantize on the fly, so
// no calibration pass is needed and training is untouched.
//
// Unlike the exact kernels in internal/tensor, the quantized kernels carry
// no bit-reproducibility contract across shapes or refactors — quantization
// itself already perturbs every weight, so the differential tests bound the
// end-to-end error against the float32 kernels instead (see quant_test.go).
// Within one build the kernels are still deterministic: same inputs, same
// outputs.
package quant

import (
	"fmt"
	"math"

	"voyager/internal/tensor"
)

// Q8Mat is an int8 weight matrix with one symmetric scale per column:
// ŵ[i][j] = float32(Data[i*Cols+j]) · Scale[j]. Per-column scales fit a
// linear layer's weights (each output neuron's column has its own range)
// much tighter than one per-tensor scale, and they factor out of the dot
// product, so the kernel multiplies by Scale once per output element rather
// than once per term.
type Q8Mat struct {
	Rows, Cols int
	Data       []int8
	Scale      []float32
}

// QuantizeQ8 quantizes w into a fresh Q8Mat.
func QuantizeQ8(w *tensor.Mat) *Q8Mat {
	q := &Q8Mat{
		Rows:  w.Rows,
		Cols:  w.Cols,
		Data:  make([]int8, len(w.Data)),
		Scale: make([]float32, w.Cols),
	}
	q.RequantizeFrom(w)
	return q
}

// RequantizeFrom refreshes the quantized weights from w in place, allocating
// nothing — the lazy-requantization hook for weights that keep training
// between inference batches.
func (q *Q8Mat) RequantizeFrom(w *tensor.Mat) {
	if w.Rows != q.Rows || w.Cols != q.Cols {
		panic(fmt.Sprintf("quant: RequantizeFrom shape %dx%d != %dx%d", w.Rows, w.Cols, q.Rows, q.Cols))
	}
	n := q.Cols
	for j := 0; j < n; j++ {
		var mx float32
		for i := 0; i < q.Rows; i++ {
			v := w.Data[i*n+j]
			if v < 0 {
				v = -v
			}
			if v > mx {
				mx = v
			}
		}
		scale := mx / 127
		inv := 127 / mx
		// mx == 0 has nothing to encode; a subnormal mx overflows inv to
		// +Inf (and would push NaN/Inf through the int8 conversion below),
		// so such a column — numerically zero at int8 resolution — is
		// stored as zeros with a zero scale.
		if mx == 0 || math.IsInf(float64(inv), 0) {
			q.Scale[j] = 0
			for i := 0; i < q.Rows; i++ {
				q.Data[i*n+j] = 0
			}
			continue
		}
		q.Scale[j] = scale
		// Each code is the nearest integer to w/scale against the stored
		// scale, halves away from zero. The quotient is taken in float64:
		// w·(127/mx) in float32 strays from it by a rounding or two, enough
		// near a half step to pick the neighbouring code and break the
		// |ŵ−w| ≤ scale/2 bound. Two float32s never sit closer to a half
		// step than float64 resolves, and |w| ≤ mx keeps the code within
		// ±127 up to scale's own rounding, which the clamp absorbs.
		s64 := float64(scale)
		for i := 0; i < q.Rows; i++ {
			c := math.Round(float64(w.Data[i*n+j]) / s64)
			q.Data[i*n+j] = int8(max(-127, min(127, c)))
		}
	}
}

// Dequantize expands the quantized weights back to float32 (dst allocated
// when nil) — the reference the differential tests compare kernels against.
func (q *Q8Mat) Dequantize(dst *tensor.Mat) *tensor.Mat {
	if dst == nil {
		dst = tensor.NewMat(q.Rows, q.Cols)
	}
	n := q.Cols
	for i := 0; i < q.Rows; i++ {
		drow := dst.Row(i)
		qrow := q.Data[i*n : (i+1)*n]
		for j, qv := range qrow {
			drow[j] = float32(qv) * q.Scale[j]
		}
	}
	return dst
}

// Bytes returns the storage footprint of the quantized form.
func (q *Q8Mat) Bytes() int { return len(q.Data) + 4*len(q.Scale) }

// MatMulQ8 computes dst = x·ŵ (+ bias per column when bias is non-nil),
// where ŵ is q's dequantized weight matrix. x is batch×in, q is in×out,
// dst is batch×out and is overwritten. The per-column scale factors out of
// the dot product: the inner loops accumulate raw int8-converted products
// and one final pass applies scale and bias, so dequantization costs one
// int→float conversion per term and one multiply per output. Allocates
// nothing.
func MatMulQ8(dst, x *tensor.Mat, q *Q8Mat, bias []float32) {
	if x.Cols != q.Rows {
		panic(fmt.Sprintf("quant: MatMulQ8 inner dim mismatch %dx%d · %dx%d", x.Rows, x.Cols, q.Rows, q.Cols))
	}
	if dst.Rows != x.Rows || dst.Cols != q.Cols {
		panic("quant: MatMulQ8 dst shape mismatch")
	}
	if bias != nil && len(bias) != q.Cols {
		panic("quant: MatMulQ8 bias length mismatch")
	}
	n := q.Cols
	if n == 0 {
		return
	}
	kc := x.Cols
	qd := q.Data
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		drow := dst.Row(i)[:n]
		for j := range drow {
			drow[j] = 0
		}
		k := 0
		for ; k+4 <= kc; k += 4 {
			xv0, xv1, xv2, xv3 := xrow[k], xrow[k+1], xrow[k+2], xrow[k+3]
			q0 := qd[k*n:]
			q0 = q0[:n]
			q1 := qd[(k+1)*n:]
			q1 = q1[:n]
			q2 := qd[(k+2)*n:]
			q2 = q2[:n]
			q3 := qd[(k+3)*n:]
			q3 = q3[:n]
			for j := range drow {
				drow[j] += (xv0*float32(q0[j]) + xv1*float32(q1[j])) +
					(xv2*float32(q2[j]) + xv3*float32(q3[j]))
			}
		}
		for ; k < kc; k++ {
			xv := xrow[k]
			qrow := qd[k*n:]
			qrow = qrow[:n]
			for j := range drow {
				drow[j] += xv * float32(qrow[j])
			}
		}
		scale := q.Scale[:n]
		if bias != nil {
			b := bias[:n]
			for j := range drow {
				drow[j] = drow[j]*scale[j] + b[j]
			}
		} else {
			for j := range drow {
				drow[j] *= scale[j]
			}
		}
	}
}

// F16Mat is an IEEE binary16 weight matrix — 2× smaller than float32 with
// ~3 decimal digits of precision, the near-lossless tier of the quantized
// path.
type F16Mat struct {
	Rows, Cols int
	Data       []uint16
}

// QuantizeF16 converts w into a fresh F16Mat (round to nearest even).
func QuantizeF16(w *tensor.Mat) *F16Mat {
	q := &F16Mat{Rows: w.Rows, Cols: w.Cols, Data: make([]uint16, len(w.Data))}
	q.RequantizeFrom(w)
	return q
}

// RequantizeFrom refreshes the half-precision weights from w in place.
func (q *F16Mat) RequantizeFrom(w *tensor.Mat) {
	if w.Rows != q.Rows || w.Cols != q.Cols {
		panic(fmt.Sprintf("quant: RequantizeFrom shape %dx%d != %dx%d", w.Rows, w.Cols, q.Rows, q.Cols))
	}
	for i, v := range w.Data {
		q.Data[i] = F32ToF16(v)
	}
}

// Dequantize expands the half-precision weights back to float32 (dst
// allocated when nil).
func (q *F16Mat) Dequantize(dst *tensor.Mat) *tensor.Mat {
	if dst == nil {
		dst = tensor.NewMat(q.Rows, q.Cols)
	}
	for i, u := range q.Data {
		dst.Data[i] = F16ToF32(u)
	}
	return dst
}

// Bytes returns the storage footprint of the half-precision form.
func (q *F16Mat) Bytes() int { return 2 * len(q.Data) }

// f16Table maps every binary16 bit pattern to its float32 value. 256 KiB
// buys a branch-free one-load dequantization in the kernel inner loop —
// trained weights cluster in a narrow range, so the touched table lines stay
// cache-resident.
var f16Table [1 << 16]float32

func init() {
	for u := 0; u < 1<<16; u++ {
		f16Table[u] = F16ToF32(uint16(u))
	}
}

// MatMulF16 computes dst = x·ŵ (+ bias per column when bias is non-nil)
// against half-precision weights, dequantizing through the lookup table.
// Shapes as MatMulQ8. Allocates nothing.
func MatMulF16(dst, x *tensor.Mat, q *F16Mat, bias []float32) {
	if x.Cols != q.Rows {
		panic(fmt.Sprintf("quant: MatMulF16 inner dim mismatch %dx%d · %dx%d", x.Rows, x.Cols, q.Rows, q.Cols))
	}
	if dst.Rows != x.Rows || dst.Cols != q.Cols {
		panic("quant: MatMulF16 dst shape mismatch")
	}
	if bias != nil && len(bias) != q.Cols {
		panic("quant: MatMulF16 bias length mismatch")
	}
	n := q.Cols
	if n == 0 {
		return
	}
	kc := x.Cols
	qd := q.Data
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		drow := dst.Row(i)[:n]
		for j := range drow {
			drow[j] = 0
		}
		k := 0
		for ; k+4 <= kc; k += 4 {
			xv0, xv1, xv2, xv3 := xrow[k], xrow[k+1], xrow[k+2], xrow[k+3]
			q0 := qd[k*n:]
			q0 = q0[:n]
			q1 := qd[(k+1)*n:]
			q1 = q1[:n]
			q2 := qd[(k+2)*n:]
			q2 = q2[:n]
			q3 := qd[(k+3)*n:]
			q3 = q3[:n]
			for j := range drow {
				drow[j] += (xv0*f16Table[q0[j]] + xv1*f16Table[q1[j]]) +
					(xv2*f16Table[q2[j]] + xv3*f16Table[q3[j]])
			}
		}
		for ; k < kc; k++ {
			xv := xrow[k]
			qrow := qd[k*n:]
			qrow = qrow[:n]
			for j := range drow {
				drow[j] += xv * f16Table[qrow[j]]
			}
		}
		if bias != nil {
			b := bias[:n]
			for j := range drow {
				drow[j] += b[j]
			}
		}
	}
}

// F32ToF16 converts a float32 to IEEE binary16 with round-to-nearest-even,
// saturating overflow to ±Inf and preserving NaN.
func F32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	man := b & 0x7fffff
	switch {
	case exp >= 31: // overflow, Inf, NaN
		if b&0x7fffffff > 0x7f800000 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7c00
	case exp <= 0: // subnormal or zero
		if exp < -10 {
			return sign
		}
		man |= 0x800000
		shift := uint32(14 - exp)
		v := man >> shift
		rem := man & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && v&1 == 1) {
			v++
		}
		return sign | uint16(v)
	}
	v := man >> 13
	if rem := man & 0x1fff; rem > 0x1000 || (rem == 0x1000 && v&1 == 1) {
		v++ // may carry into the exponent — the addition below handles it
	}
	r := uint32(exp)<<10 + v
	if r >= 0x7c00 {
		return sign | 0x7c00
	}
	return sign | uint16(r)
}

// F16ToF32 converts an IEEE binary16 bit pattern to float32 (exact).
func F16ToF32(u uint16) float32 {
	sign := uint32(u&0x8000) << 16
	exp := uint32(u >> 10 & 0x1f)
	man := uint32(u & 0x3ff)
	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // ±0
		}
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (man&0x3ff)<<13)
	case exp == 31:
		return math.Float32frombits(sign | 0x7f800000 | man<<13)
	}
	return math.Float32frombits(sign | (exp-15+127)<<23 | man<<13)
}

// AffineQuantize rounds data in place to 2^bits linear levels spanning its
// [min, max] range — the per-tensor affine simulation behind the §5.4
// model-size study (nn.ParamSet.Quantize delegates here). Exact zeros stay
// zero so magnitude pruning survives quantization. bits outside (0, 32) is
// a no-op.
func AffineQuantize(data []float32, bits int) {
	if bits <= 0 || bits >= 32 || len(data) == 0 {
		return
	}
	levels := float32(int32(1)<<bits - 1)
	mn, mx := data[0], data[0]
	for _, v := range data {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mx == mn {
		return
	}
	scale := (mx - mn) / levels
	for i, v := range data {
		if v == 0 {
			continue
		}
		data[i] = float32(int32((v-mn)/scale+0.5))*scale + mn
	}
}
