package tensor

import "math"

// The activations. Every sigmoid and tanh the package computes is the
// float32 rounding of a float64 evaluation, and that evaluation is defined
// here rather than by package math: exp64 is a transcription of the FMA
// path of Go's amd64 math.Exp, and tanh64 is math's pure-Go tanh on top of
// it. math.Exp itself takes one of two amd64 paths, chosen from the CPU's
// FMA support (and GODEBUG=cpu.fma), and the two round differently; owning
// the definition keeps every tensor value independent of the host, the
// GODEBUG setting and the Go release. log1p64, for the BCE loss, is math's
// log1p transcribed the same way. sigmoidRow, tanhRow and bceTermRow are
// the row forms: they run four lanes per instruction in assembly where the
// CPU has AVX2 and FMA (sigmoidRow and tanhRow eight where it also has
// AVX-512F), with the same roundings as the scalar functions.

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

// Exp64 is exp64: e**x with the roundings of the FMA path of Go's amd64
// math.Exp, on every host and GODEBUG setting.
func Exp64(x float64) float64 { return exp64(x) }

// Constants of math's log1p (src/math/log1p.go).
const (
	log1pSqrt2M1     = 4.142135623730950488017e-01  // Sqrt(2)-1
	log1pSqrt2HalfM1 = -2.928932188134524755992e-01 // Sqrt(2)/2-1
	log1pSmall       = 1.0 / (1 << 29)
	log1pTiny        = 1.0 / (1 << 54)
	log1pTwo53       = 1 << 53
	log1pLn2Hi       = 6.93147180369123816490e-01
	log1pLn2Lo       = 1.90821492927058770002e-10
	log1pLp1         = 6.666666666666735130e-01
	log1pLp2         = 3.999999999940941908e-01
	log1pLp3         = 2.857142874366239149e-01
	log1pLp4         = 2.222219843214978396e-01
	log1pLp5         = 1.818357216161805012e-01
	log1pLp6         = 1.531383769920937332e-01
	log1pLp7         = 1.479819860511658591e-01
)

// log1p64 is math's pure-Go log1p (the one every GOARCH but s390x runs),
// step for step, with explicit float64 conversions on every product an
// add or subtract could absorb, so gc fuses none of them where it fuses
// a*b+c. On amd64 and 386, where gc fuses nothing, it equals math.Log1p
// bit for bit.
func log1p64(x float64) float64 {
	switch {
	case x < -1 || x != x: // includes -Inf
		return math.NaN()
	case x == -1:
		return math.Inf(-1)
	case x > math.MaxFloat64:
		return math.Inf(1)
	}
	absx := math.Abs(x)
	var f float64
	var iu uint64
	k := 1
	if absx < log1pSqrt2M1 {
		if absx < log1pSmall {
			if absx < log1pTiny {
				return x
			}
			return x - float64(x*x*0.5)
		}
		if x > log1pSqrt2HalfM1 {
			k = 0
			f = x
			iu = 1
		}
	}
	var c float64
	if k != 0 {
		var u float64
		if absx < log1pTwo53 {
			u = 1.0 + x
			iu = math.Float64bits(u)
			k = int((iu >> 52) - 1023)
			if k > 0 {
				c = 1.0 - (u - x)
			} else {
				c = x - (u - 1.0)
			}
			c /= u
		} else {
			u = x
			iu = math.Float64bits(u)
			k = int((iu >> 52) - 1023)
			c = 0
		}
		iu &= 0x000fffffffffffff
		if iu < 0x0006a09e667f3bcd { // mantissa of Sqrt(2)
			u = math.Float64frombits(iu | 0x3ff0000000000000)
		} else {
			k++
			u = math.Float64frombits(iu | 0x3fe0000000000000)
			iu = (0x0010000000000000 - iu) >> 2
		}
		f = u - 1.0
	}
	hfsq := float64(0.5 * f * f)
	var s, R, z float64
	if iu == 0 { // |f| < 2**-20
		if f == 0 {
			if k == 0 {
				return 0
			}
			c += float64(float64(k) * log1pLn2Lo)
			return float64(float64(k)*log1pLn2Hi) + c
		}
		R = float64(hfsq * (1.0 - float64(0.66666666666666666*f)))
		if k == 0 {
			return f - R
		}
		return float64(float64(k)*log1pLn2Hi) - ((R - (float64(float64(k)*log1pLn2Lo) + c)) - f)
	}
	s = f / (2.0 + f)
	z = float64(s * s)
	// R = z*(Lp1+z*(Lp2+z*(Lp3+z*(Lp4+z*(Lp5+z*(Lp6+z*Lp7)))))), inside out.
	R = float64(z * log1pLp7)
	R = float64(z * (log1pLp6 + R))
	R = float64(z * (log1pLp5 + R))
	R = float64(z * (log1pLp4 + R))
	R = float64(z * (log1pLp3 + R))
	R = float64(z * (log1pLp2 + R))
	R = float64(z * (log1pLp1 + R))
	if k == 0 {
		return f - (hfsq - float64(s*(hfsq+R)))
	}
	return float64(float64(k)*log1pLn2Hi) - ((hfsq - (float64(s*(hfsq+R)) + (float64(float64(k)*log1pLn2Lo) + c))) - f)
}

// bceTerm is the logit-only term of the stable sigmoid BCE,
// log(1 + e**-|x|), in float64.
func bceTerm(x float32) float64 {
	ax := float64(x)
	if ax < 0 {
		ax = -ax
	}
	return log1p64(exp64(-ax))
}

// bceTermRow sets dst[i] = bceTerm(src[i]) for every i of src. The
// assembly takes groups of four from the front; a group it does not
// cover (see bceTermsAVX2) runs here, and the assembly resumes after it.
// Go also runs the last len(src)%4.
func bceTermRow(dst []float64, src []float32) {
	dst = dst[:len(src)]
	i := 0
	if useAVX2FMA {
		n4 := len(src) &^ 3
		for i < n4 {
			if i += bceTermsAVX2(dst[i:n4], src[i:n4]); i == n4 {
				break
			}
			for end := i + 4; i < end; i++ {
				dst[i] = bceTerm(src[i])
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = bceTerm(src[i])
	}
}

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + exp64(-float64(x))))
}

func tanh32(x float32) float32 {
	return float32(tanh64(float64(x)))
}

// sigmoidRow sets dst[i] = sigmoid32(src[i]) for every i of src. The
// assembly takes groups of eight (AVX-512F) or four (AVX2) from the front
// and stops at the first group with a NaN or an |x| over 700, beyond which
// exp's fast branch does not hold; Go finishes from there, which also runs
// the last len(src) mod 8 or 4.
func sigmoidRow(dst, src []float32) {
	dst = dst[:len(src)]
	i := 0
	switch {
	case useAVX512 && useAVX2FMA:
		i = sigmoidAVX512(dst, src)
	case useAVX2FMA:
		i = sigmoidAVX2(dst, src)
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
	switch {
	case useAVX512 && useAVX2FMA:
		i = tanhAVX512(dst, src)
	case useAVX2FMA:
		i = tanhAVX2(dst, src)
	}
	for ; i < len(src); i++ {
		dst[i] = tanh32(src[i])
	}
}
