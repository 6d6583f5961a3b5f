//go:build !amd64

package tensor

// useAVX2 is false off amd64, so the Go kernels in mat.go always run.
const useAVX2 = false

// rowMulAddAVX2 lets the vector kernels compile on every GOARCH; with
// useAVX2 constant false nothing calls it.
func rowMulAddAVX2(d, a, b []float32, kc, astride, ldb int, fromZero bool) {
	panic("tensor: rowMulAddAVX2 without AVX2")
}
