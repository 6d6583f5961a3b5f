//go:build amd64

package tensor

import "testing"

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
