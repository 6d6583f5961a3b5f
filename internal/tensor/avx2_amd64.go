package tensor

// useAVX2 routes the exact matmul kernels through rowMulAddAVX2. It is
// decided once, from CPUID: the CPU implements AVX2 and the OS has enabled
// XSAVE with XMM and YMM state, so the upper register halves survive
// context switches.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xgetbv0()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// useAVX2FMA routes sigmoidRow and tanhRow through the assembly in
// act_amd64.s: AVX2 as above, plus FMA (CPUID.1:ECX bit 12).
var useAVX2FMA = useAVX2 && hasFMA()

func hasFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

// useAVX512 routes the exact matmul kernels' four-row blocks through
// mulAdd4AVX512: AVX2 as above, plus AVX-512F (CPUID.7.0:EBX bit 16) with
// the OS saving the opmask registers and all 512 bits of the 32 vector
// registers (XCR0 bits 5, 6 and 7 besides XMM and YMM).
var useAVX512 = useAVX2 && hasAVX512F()

func hasAVX512F() bool {
	const avx512f = 1 << 16
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx512f == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	return xgetbv0()&zmmState == zmmState
}

// mulAdd4AVX512 computes, for the four dst rows r in [0, 4) and j in
// [0, n), d[r·n+j] += Σ_k a[r·lda+k·astride]·b[k·n+j] over ascending k,
// one float32 multiply and one float32 add per term, with fromZero as in
// rowMulAddAVX2. b is kc×n. The caller guarantees every index is in
// bounds; see mulAddRows.
//
//go:noescape
func mulAdd4AVX512(d, a, b []float32, kc, n, lda, astride int, fromZero bool)

// rowMulAddAVX2 computes, for j in [0, len(d)) with len(d) a multiple of 8,
// d[j] += Σ_k a[k·astride]·b[k·ldb+j] over ascending k, one float32
// multiply and one float32 add per term. fromZero accumulates from +0 and
// adds the sum to d[j] once (the tmp-then-add form); otherwise the terms
// accumulate straight into d[j]. The caller guarantees every index is in
// bounds; see rowMulAdd.
//
//go:noescape
func rowMulAddAVX2(d, a, b []float32, kc, astride, ldb int, fromZero bool)

// sigmoidAVX2 sets dst[i] = sigmoid32(src[i]) for i in [0, n) and returns
// n: the start of the first group of four that holds a NaN or an |x| over
// 700, or the last multiple of 4 in len(src). len(dst) >= len(src).
//
//go:noescape
func sigmoidAVX2(dst, src []float32) int

// tanhAVX2 is sigmoidAVX2 for tanh32, stopping at a NaN or an |x| over 44.
//
//go:noescape
func tanhAVX2(dst, src []float32) int

// adamAVX2 runs AdamUpdate's update for i below the last multiple of 8 in
// len(w). len(g), len(m) and len(v) are at least len(w).
//
//go:noescape
func adamAVX2(w, g, m, v []float32, k *AdamCoeffs)

// lstmCellBackAVX2 runs lstmCellBackRow for j below the last multiple of 8
// in hd = len(tc), given a gates gradient row gg. acts and gg hold 4·hd
// elements, cprev, dh and dc hd, and cpg hd or none.
//
//go:noescape
func lstmCellBackAVX2(gg, cpg, acts, tc, cprev, dh, dc []float32)

// bceTermsAVX2 sets dst[i] = bceTerm(src[i]) for i in [0, n) and returns
// n: the start of the first group of four that holds a NaN, an |x| over
// 700, or an e = exp64(-|x|) outside LOG1P4's range (below 2**-29, or
// within a few ulps of 1), or else the last multiple of 4 in len(src).
// len(dst) >= len(src).
//
//go:noescape
func bceTermsAVX2(dst []float64, src []float32) int

// expAVX2 sets dst[i] = exp64(src[i]) for i below the last multiple of 4 in
// len(src), every src[i] in [-700, 700]. It runs the macro sigmoidAVX2 and
// tanhAVX2 are built on, so the tests can check it at float64 precision.
//
//go:noescape
func expAVX2(dst, src []float64)

// log1pAVX2 sets dst[i] = log1p64(src[i]) for i below the last multiple of
// 4 in len(src), every src[i] in [2**-29, 1) with 1 + src[i] below
// 2 - 3·2**-52. It runs the macro bceTermsAVX2 is built on, so the tests
// can check it at float64 precision.
//
//go:noescape
func log1pAVX2(dst, src []float64)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
