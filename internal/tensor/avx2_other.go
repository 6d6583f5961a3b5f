//go:build !amd64

package tensor

// useAVX2, useAVX512 and useAVX2FMA are false off amd64, so the Go kernels
// in mat.go and the scalar activations in act.go always run.
const (
	useAVX2    = false
	useAVX512  = false
	useAVX2FMA = false
)

// The assembly entry points let the vector paths compile on every GOARCH;
// with the flags constant false nothing calls them.

func rowMulAddAVX2(d, a, b []float32, kc, astride, ldb int, fromZero bool) {
	panic("tensor: rowMulAddAVX2 without AVX2")
}

func mulAdd4AVX512(d, a, b []float32, kc, n, lda, astride int, fromZero bool) {
	panic("tensor: mulAdd4AVX512 without AVX-512")
}

func sigmoidAVX2(dst, src []float32) int { panic("tensor: sigmoidAVX2 without AVX2") }

func tanhAVX2(dst, src []float32) int { panic("tensor: tanhAVX2 without AVX2") }

func expAVX2(dst, src []float64) { panic("tensor: expAVX2 without AVX2") }
