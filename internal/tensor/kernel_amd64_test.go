//go:build amd64

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"voyager/internal/pairgate"
)

// vecPaths returns the vector kernel paths this host runs, widest first,
// and logs the ones it cannot run. A path's activations take the assembly
// only where the CPU has FMA too.
func vecPaths(tb testing.TB) []kernelPath {
	var paths []kernelPath
	if detectAVX2() && hasAVX512F() {
		paths = append(paths, kernelPath{name: "avx512", avx2: true, avx512: true, fma: hasFMA()})
	} else {
		tb.Log("no AVX-512F: the AVX-512 path is skipped")
	}
	if detectAVX2() {
		paths = append(paths, kernelPath{name: "avx2", avx2: true, fma: hasFMA()})
	} else {
		tb.Log("no AVX2: the AVX2 path is skipped")
	}
	return paths
}

// use selects the path's kernels and activations until tb's cleanup,
// which restores the dispatch variables.
func (p kernelPath) use(tb testing.TB) {
	avx2, avx512, avx2FMA := useAVX2, useAVX512, useAVX2FMA
	tb.Cleanup(func() { useAVX2, useAVX512, useAVX2FMA = avx2, avx512, avx2FMA })
	useAVX2, useAVX512, useAVX2FMA = p.avx2, p.avx512, p.avx2 && p.fma
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

// TestLSTMCellRowFallback holds one row of the cell's forward, hidden 64,
// to the Go row on the scalar activations, bit for bit in every output,
// when one lane is outside the AVX-512 kernel's range: each of
// fallbackSpecials at each position of the gates (the σ blocks' and the
// tanh block's limits) and of cPrev (which can take c, and so tanh(c), out
// of range). It also checks that the kernel takes the row when no lane is.
func TestLSTMCellRowFallback(t *testing.T) {
	if !useAVX512 || !useAVX2FMA {
		t.Skip("no AVX-512F with FMA: the cell's forward has no AVX-512 path")
	}
	const hd = 64
	rng := rand.New(rand.NewSource(25))
	gates, cprev := make([]float32, 4*hd), make([]float32, hd)
	fill := func() {
		for i := range gates {
			gates[i] = float32(rng.NormFloat64() * 3)
		}
		for i := range cprev {
			cprev[i] = float32(rng.NormFloat64())
		}
	}
	// row runs lstmCellRow into out, laid out as acts, c, tanh(c), h.
	row := func(out []float32) {
		lstmCellRow(out[:4*hd], out[4*hd:5*hd], out[5*hd:6*hd], out[6*hd:], gates, cprev)
	}
	scalarRow := func(out []float32) {
		avx2, avx512, avx2FMA := useAVX2, useAVX512, useAVX2FMA
		defer func() { useAVX2, useAVX512, useAVX2FMA = avx2, avx512, avx2FMA }()
		useAVX2, useAVX512, useAVX2FMA = false, false, false
		row(out)
	}
	got, want := make([]float32, 7*hd), make([]float32, 7*hd)
	check := func(name string) {
		t.Helper()
		row(got)
		scalarRow(want)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: output %d: got %v [%#08x], want %v [%#08x]", name, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	fill()
	if !lstmCellAVX512(got[:4*hd], got[4*hd:5*hd], got[5*hd:6*hd], got[6*hd:], gates, cprev) {
		t.Fatal("lstmCellAVX512 declined a row with every lane in range")
	}
	check("in range")
	for _, s := range fallbackSpecials {
		for at := range gates {
			fill()
			gates[at] = s
			check(fmt.Sprintf("gates[%d] = %v", at, s))
		}
		for at := range cprev {
			fill()
			cprev[at] = s
			check(fmt.Sprintf("cprev[%d] = %v", at, s))
		}
	}
}

// BenchmarkGateLSTMCell is the paired gate on the LSTM cell's AVX-512
// forward: LSTMCell at 128 rows × hidden 64 on a NoGrad tape, on the path
// the host detected, against the same call with useAVX512 off (the
// four-lane activations and the Go cell loops), 100 calls a side in each
// of pairgate.Pairs pairs. It fails when the AVX-512 path takes more than
// 0.72 of the other's time in nine tenths of the pairs. A 2-vCPU
// AVX-512F host read 0.63–0.66, and 0.77–0.82 with every row forced onto
// the Go row code (which still runs the eight-lane activations), so the
// budget catches rows falling back to Go as well as the cell kernel
// dropped from dispatch. It is a check, run once by scripts/verify.sh
// with -benchtime 1x.
func BenchmarkGateLSTMCell(b *testing.B) {
	b.ReportAllocs()
	if !useAVX512 || !useAVX2FMA {
		b.Skip("no AVX-512F with FMA: the cell's forward has no AVX-512 path to gate")
	}
	rng := rand.New(rand.NewSource(10))
	gates, cPrev := randMat(rng, 128, 4*64), randMat(rng, 128, 64)
	tp := NewTape()
	cell := pairgate.Timed(func() {
		tp.Reset()
		tp.NoGrad = true
		tp.LSTMCell(tp.Const(gates), tp.Const(cPrev))
	})
	avx512 := useAVX512
	withoutAVX512 := func() float64 {
		useAVX512 = false
		defer func() { useAVX512 = avx512 }()
		return cell()
	}
	pairgate.Run(b, 0.72, 100, withoutAVX512, cell)
}
