package tensor

import "math"

// The activations. Every sigmoid and tanh the package computes is the
// float32 rounding of a float64 evaluation, and that evaluation is defined
// here rather than by package math: exp64 is a transcription of the FMA
// path of Go's amd64 math.Exp, and tanh64 is math's pure-Go tanh on top of
// it. math.Exp itself takes one of two amd64 paths, chosen from the CPU's
// FMA support (and GODEBUG=cpu.fma), and the two round differently; owning
// the definition keeps every tensor value independent of the host, the
// GODEBUG setting and the Go release. sigmoidRow and tanhRow are the row
// forms: they run four lanes per instruction in assembly where the CPU has
// AVX2 and FMA, with the same roundings as the scalar functions.

// Constants of math.Exp's amd64 kernel (src/math/exp_amd64.s).
const (
	expLog2e    = 1.4426950408889634073599246810018920        // 1/ln 2
	expLn2U     = 0.69314718055966295651160180568695068359375 // upper half of ln 2
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
)

// exp64 returns e**x with the roundings of the avxfma branch of Go's amd64
// math.Exp, step for step: k = round(x·log₂e); r = (x - k·ln2U - k·ln2L)/16
// with both reductions fused; a degree-8 Taylor polynomial of e**r - 1 in
// fused Horner form; four squarings (the last fused) take it to e**(16r);
// and the result is scaled by 2**k, with math.Exp's denormal and overflow
// branches. math.FMA is an instruction where the CPU has one and exact in
// software elsewhere, so the bits do not depend on the host. The explicit
// float64 conversions keep the unfused steps unfused on architectures
// where gc fuses a*b+c (arm64, for one), the returned products included,
// which a caller's add could otherwise absorb once inlined.
func exp64(x float64) float64 {
	switch {
	case x != x || x > math.MaxFloat64: // NaN or +Inf
		return x
	case x < -math.MaxFloat64: // -Inf
		return 0
	case x > expOverflow:
		return math.Inf(1)
	}
	t := math.RoundToEven(expLog2e * x)
	if t < -1075 {
		// 2**k would be below the smallest denormal (math.Exp's
		// underflow branch, which also catches k beyond int32).
		return 0
	}
	k := int(t)
	kf := float64(k) // from the integer, as CVTSL2SD: -0 becomes +0
	r := math.FMA(-kf, expLn2U, x)
	r = math.FMA(-kf, expLn2L, r)
	r *= 0.0625
	p := math.FMA(2.4801587301587301587e-5, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	r = float64(r * p)
	for range 3 {
		p = r + 2
		r = float64(r * p)
	}
	r = math.FMA(r, r+2, 1)

	e := k + 0x3FF // biased exponent of 2**k
	switch {
	case e <= 0: // denormal result: scale in two steps
		if e < -52 {
			return 0
		}
		r *= math.Float64frombits(uint64(e+0x3FE) << 52)
		return float64(r * math.Float64frombits(1<<52))
	case e >= 0x7FF:
		return math.Inf(1)
	}
	return float64(r * math.Float64frombits(uint64(e)<<52))
}

// Coefficients of math's tanh (src/math/tanh.go).
const (
	tanhP0 = -9.64399179425052238628e-1
	tanhP1 = -9.92877231001918586564e1
	tanhP2 = -1.61468768441708447952e3
	tanhQ0 = 1.12811678491632931402e2
	tanhQ1 = 2.23548839060100448583e3
	tanhQ2 = 4.84406305325125486048e3
)

// tanh64 is math's pure-Go tanh (the one amd64 runs) on exp64: ±1 past
// log(2**127)/2, 1 - 2/(e**2|x| + 1) with x's sign from 0.625, and a
// rational polynomial below, evaluated unfused in math's order.
func tanh64(x float64) float64 {
	const maxLog = 8.8029691931113054295988e+01 // log(2**127)
	z := math.Abs(x)
	switch {
	case z > 0.5*maxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := exp64(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
		return z
	case x == 0:
		return x
	}
	s := float64(x * x)
	num := float64((float64(tanhP0*s)+tanhP1)*s) + tanhP2
	den := float64((float64((s+tanhQ0)*s)+tanhQ1)*s) + tanhQ2
	return x + x*s*num/den
}

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + exp64(-float64(x))))
}

func tanh32(x float32) float32 {
	return float32(tanh64(float64(x)))
}

// sigmoidRow sets dst[i] = sigmoid32(src[i]) for every i of src. The
// assembly takes groups of four from the front and stops at the first
// group with a NaN or an |x| over 700, beyond which exp's fast branch does
// not hold; Go finishes from there, which also runs the last len(src)%4.
func sigmoidRow(dst, src []float32) {
	dst = dst[:len(src)]
	i := 0
	if useAVX2FMA {
		n4 := len(src) &^ 3
		i = sigmoidAVX2(dst[:n4], src[:n4])
	}
	for ; i < len(src); i++ {
		dst[i] = sigmoid32(src[i])
	}
}

// tanhRow sets dst[i] = tanh32(src[i]) for every i of src, like sigmoidRow
// with the assembly's limit at |x| over 44, where tanh64 returns ±1.
func tanhRow(dst, src []float32) {
	dst = dst[:len(src)]
	i := 0
	if useAVX2FMA {
		n4 := len(src) &^ 3
		i = tanhAVX2(dst[:n4], src[:n4])
	}
	for ; i < len(src); i++ {
		dst[i] = tanh32(src[i])
	}
}
