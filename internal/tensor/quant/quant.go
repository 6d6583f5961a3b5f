// Package quant holds the repo's reduced-precision number handling: IEEE
// binary16 conversion (F32ToF16, F16ToF32), in which the distilled tables
// pack each candidate's probability, and the per-tensor affine rounding
// (AffineQuantize) that simulates 8-bit weights for the §5.4 model-size
// study. No inference path runs on quantized weights; prediction uses the
// float32 kernels in internal/tensor.
package quant

import "math"

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
// a no-op. The level's product with scale is converted explicitly, so gc
// cannot fuse it into the add of mn where it fuses a*b+c (arm64, for one).
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
		data[i] = float32(float32(int32((v-mn)/scale+0.5))*scale) + mn
	}
}
