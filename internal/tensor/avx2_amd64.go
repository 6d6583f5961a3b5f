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

// rowMulAddAVX2 computes, for j in [0, len(d)) with len(d) a multiple of 8,
// d[j] += Σ_k a[k·astride]·b[k·ldb+j] over ascending k, one float32
// multiply and one float32 add per term. fromZero accumulates from +0 and
// adds the sum to d[j] once (the tmp-then-add form); otherwise the terms
// accumulate straight into d[j]. The caller guarantees every index is in
// bounds; see rowMulAdd.
//
//go:noescape
func rowMulAddAVX2(d, a, b []float32, kc, astride, ldb int, fromZero bool)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
