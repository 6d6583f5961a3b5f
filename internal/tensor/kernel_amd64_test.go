//go:build amd64

package tensor

import (
	"math/rand"
	"testing"

	"voyager/internal/pairgate"
)

// vecPaths returns the vector kernel paths this host runs, widest first,
// and logs the ones it cannot run.
func vecPaths(tb testing.TB) []kernelPath {
	var paths []kernelPath
	if detectAVX2() && hasAVX512F() {
		paths = append(paths, kernelPath{name: "avx512", avx2: true, avx512: true})
	} else {
		tb.Log("no AVX-512F: the AVX-512 path is skipped")
	}
	if detectAVX2() {
		paths = append(paths, kernelPath{name: "avx2", avx2: true})
	} else {
		tb.Log("no AVX2: the AVX2 path is skipped")
	}
	return paths
}

// use selects the path's kernels until tb's cleanup, which restores the
// dispatch variables.
func (p kernelPath) use(tb testing.TB) {
	avx2, avx512 := useAVX2, useAVX512
	tb.Cleanup(func() { useAVX2, useAVX512 = avx2, avx512 })
	useAVX2, useAVX512 = p.avx2, p.avx512
}

// BenchmarkGateVecKernels is the paired gate on the vector kernels: a
// 256² MatMul on the path the host detected against the same call with
// the Go kernels forced, 20 calls a side in each of pairgate.Pairs pairs.
// It fails when the vector path takes more than half the Go kernels' time
// in nine tenths of the pairs, which catches a kernel dropped from
// dispatch or slowed by a large factor. A 2-vCPU AVX-512F host read
// 0.08–0.12. It is a check, run once by scripts/verify.sh with
// -benchtime 1x.
func BenchmarkGateVecKernels(b *testing.B) {
	b.ReportAllocs()
	if !useAVX2 {
		b.Skip("no AVX2: the host dispatches to the Go kernels, so there is no vector path to gate")
	}
	rng := rand.New(rand.NewSource(9))
	x, y, dst := randMat(rng, 256, 256), randMat(rng, 256, 256), NewMat(256, 256)
	matMul := pairgate.Timed(func() { MatMul(dst, x, y) })
	avx2, avx512 := useAVX2, useAVX512
	goKernels := func() float64 {
		useAVX2, useAVX512 = false, false
		defer func() { useAVX2, useAVX512 = avx2, avx512 }()
		return matMul()
	}
	pairgate.Run(b, 0.5, 20, goKernels, matMul)
}
