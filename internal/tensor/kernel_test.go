package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveMatMulATransB / naiveMatMulABTrans are scalar references whose
// per-element summation order (ascending i / ascending k, one float32
// rounding per add) matches the contract the exact kernels document — so
// the exact kernels must match them BITWISE, not just within tolerance.
func naiveMatMulATransB(a, b *Mat) *Mat {
	out := NewMat(a.Cols, b.Cols)
	for k := 0; k < a.Cols; k++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for i := 0; i < a.Rows; i++ {
				s += a.At(i, k) * b.At(i, j)
			}
			out.Set(k, j, s)
		}
	}
	return out
}

func naiveMatMulABTrans(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// matsBitIdentical compares by bit pattern, so NaNs compare equal to
// themselves and +0 differs from -0 — exactly the cases a tolerance
// comparison would paper over.
func matsBitIdentical(t *testing.T, name string, got, want *Mat) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d: got %v (%#08x) want %v (%#08x)",
				name, i, got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// bitIdentityShapes crosses parallelThreshold in both directions: 20·15·11
// stays serial, 130·70·90 dispatches to the worker pool — the blocked,
// unrolled, parallel kernels must stay bit-identical to the scalar loops
// either way.
var bitIdentityShapes = [][3]int{{1, 1, 1}, {3, 5, 2}, {20, 15, 11}, {64, 48, 80}, {130, 70, 90}}

// TestMatMulExactBitIdentity pins the kernel numerics contract (mat.go):
// every kernel reproduces the scalar ascending-order reference
// bit for bit, at serial and parallel sizes, including the Acc variants'
// tmp-then-add equivalence.
func TestMatMulExactBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range bitIdentityShapes {
		r, k, c := s[0], s[1], s[2]
		a := randMat(rng, r, k)
		b := randMat(rng, k, c)
		matsBitIdentical(t, "MatMul", MatMul(nil, a, b), naiveMatMul(a, b))

		at := randMat(rng, r, k) // aᵀ·b: both r rows
		bt := randMat(rng, r, c)
		matsBitIdentical(t, "MatMulATransB", MatMulATransB(nil, at, bt), naiveMatMulATransB(at, bt))

		ab := randMat(rng, r, k) // a·bᵀ: shared k cols
		bb := randMat(rng, c, k)
		matsBitIdentical(t, "MatMulABTrans", MatMulABTrans(nil, ab, bb), naiveMatMulABTrans(ab, bb))

		// Acc variants: dst += product must equal tmp = product; dst += tmp.
		base := randMat(rng, r, c)
		accWant := base.Clone()
		accWant.AddInPlace(naiveMatMulABTrans(ab, bb))
		accGot := base.Clone()
		MatMulABTransAcc(accGot, ab, bb)
		matsBitIdentical(t, "MatMulABTransAcc", accGot, accWant)

		base2 := randMat(rng, k, c)
		accWant2 := base2.Clone()
		accWant2.AddInPlace(naiveMatMulATransB(at, bt))
		accGot2 := base2.Clone()
		MatMulATransBAcc(accGot2, at, bt)
		matsBitIdentical(t, "MatMulATransBAcc", accGot2, accWant2)
	}
}

// TestMatMulNonFinite is the regression test for the former av == 0 skip
// branches: skipping a zero a-element suppressed the NaN from 0·Inf and the
// sign flip from accumulating -0, silently diverging from IEEE semantics.
// The branch-free kernels must match the naive loops bitwise even when the
// inputs carry Inf, NaN, and signed zeros.
func TestMatMulNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	for _, s := range [][3]int{{6, 9, 5}, {130, 70, 90}} {
		r, k, c := s[0], s[1], s[2]
		a := randMat(rng, r, k)
		b := randMat(rng, k, c)
		// Zero a-elements paired with non-finite b-elements: a zero-skip
		// kernel would drop the 0·Inf = NaN term entirely.
		a.Set(0, 0, 0)
		b.Set(0, 0, inf)
		a.Set(1, 2, 0)
		b.Set(2, 1, nan)
		// An all-zero row with mixed zero signs: -0 + +0 = +0 but
		// -0 + -0 = -0, so skipping "zero work" changes the result's sign.
		for j := 0; j < k; j++ {
			a.Set(2, j, negZero)
		}
		b.Set(3, 2, negZero)
		matsBitIdentical(t, "MatMul", MatMul(nil, a, b), naiveMatMul(a, b))

		bt := randMat(rng, r, c)
		bt.Set(0, 0, inf)
		matsBitIdentical(t, "MatMulATransB", MatMulATransB(nil, a, bt), naiveMatMulATransB(a, bt))

		bb := randMat(rng, c, k)
		bb.Set(0, 0, inf)
		bb.Set(1, 2, nan)
		matsBitIdentical(t, "MatMulABTrans", MatMulABTrans(nil, a, bb), naiveMatMulABTrans(a, bb))
	}
}

// indefiniteNaN is the NaN x86 produces for 0·Inf and Inf−Inf. When two
// NaNs with different bits meet in an add or multiply, the result keeps
// one of them, chosen by operand position, and the compiler picks operand
// order per statement for these commutative ops. Inputs that carry only
// this NaN give one answer for any order, so the bits below are defined.
var indefiniteNaN = math.Float32frombits(0xffc00000)

// randSpecialMat is randMat with about one element in six replaced by +0,
// -0 or a subnormal, and three elements set to +Inf, -Inf and NaN.
func randSpecialMat(rng *rand.Rand, r, c int) *Mat {
	m := randMat(rng, r, c)
	for i := range m.Data {
		switch rng.Intn(18) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = float32(math.Copysign(0, -1))
		case 2:
			m.Data[i] = math.Float32frombits(uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<31)
		}
	}
	if len(m.Data) > 0 {
		for _, v := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), indefiniteNaN} {
			m.Data[rng.Intn(len(m.Data))] = v
		}
	}
	return m
}

// kernelPath is one setting of the kernel dispatch variables: useAVX2,
// useAVX512, and useAVX2FMA, which holds where avx2 and fma both do.
type kernelPath struct {
	name              string
	avx2, avx512, fma bool
}

// onVecPaths runs f once per vector path the host runs (vecPaths), as a
// subtest with that path selected, or once on the Go kernels where there
// is none.
func onVecPaths(t *testing.T, f func(t *testing.T)) {
	paths := vecPaths(t)
	if len(paths) == 0 {
		f(t)
		return
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			p.use(t)
			f(t)
		})
	}
}

// onPaths runs f on every path the host runs: first on the one it
// detected, the widest, directly under t, then as a subtest named after
// each narrower one, the other vector paths (vecPaths) and "go", the Go
// kernels and the scalar activations.
func onPaths(t *testing.T, f func(t *testing.T)) {
	paths := append(vecPaths(t), kernelPath{name: "go"})
	t.Logf("detected path: %s", paths[0].name)
	f(t)
	for _, p := range paths[1:] {
		t.Run(p.name, func(t *testing.T) {
			p.use(t)
			f(t)
		})
	}
}

// TestVecKernelsMatchGoKernels holds the entry points to the Go kernels,
// called directly, bit for bit, on every vector path the host runs. Row
// counts straddle the AVX-512 kernel's 4-row blocks; column counts
// straddle the AVX2 path's 8- and 32-column blocks and Go tail and the
// AVX-512 path's 16- and 64-column blocks and lane mask; kc runs past 128.
// The small row counts meet every kc and n. The large ones cross
// parallelThreshold at the larger kc and n, so the pool splits them (on
// two workers 130 rows into chunks of 68 and 62 on the AVX-512 path, 65
// and 65 on the AVX2 path). They meet every kc but 129 and fewer n, since
// the Go reference kernels' cost grows with the row count.
func TestVecKernelsMatchGoKernels(t *testing.T) {
	onVecPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for _, r := range []int{0, 1, 2, 3, 4, 5, 7, 9, 128, 130, 131} {
			kcs := []int{0, 1, 5, 40, 64, 129}
			ns := []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 48, 63, 64, 65, 80, 96, 127, 129, 257}
			if r >= 128 {
				kcs = []int{0, 1, 5, 40, 64}
				ns = []int{1, 7, 8, 9, 17, 31, 32, 33, 40, 64, 65, 96, 257}
			}
			for _, kc := range kcs {
				for _, n := range ns {
					checkVecKernels(t, rng, r, kc, n)
				}
			}
		}
	})
}

// checkVecKernels compares every entry point's r×n product with inner
// dimension kc to the Go kernel's, on inputs with special values.
func checkVecKernels(t *testing.T, rng *rand.Rand, r, kc, n int) {
	t.Helper()
	name := func(f string) string { return fmt.Sprintf("%s %dx%dx%d", f, r, kc, n) }
	a := randSpecialMat(rng, r, kc)
	b := randSpecialMat(rng, kc, n)
	want := NewMat(r, n)
	matMulAccRange(want, a, b, 0, r)
	matsBitIdentical(t, name("MatMul"), MatMul(nil, a, b), want)

	at := randSpecialMat(rng, kc, r)
	bt := randSpecialMat(rng, kc, n)
	want = NewMat(r, n)
	matMulATransBRange(want, at, bt, 0, r)
	matsBitIdentical(t, name("MatMulATransB"), MatMulATransB(nil, at, bt), want)

	base := randSpecialMat(rng, r, n)
	want = base.Clone()
	matMulATransBAccRange(want, at, bt, 0, r)
	got := base.Clone()
	MatMulATransBAcc(got, at, bt)
	matsBitIdentical(t, name("MatMulATransBAcc"), got, want)

	bb := randSpecialMat(rng, n, kc)
	want = NewMat(r, n)
	matMulABTransRange(want, a, bb, 0, r)
	matsBitIdentical(t, name("MatMulABTrans"), MatMulABTrans(nil, a, bb), want)

	want = base.Clone()
	matMulABTransRange(want, a, bb, 0, r)
	got = base.Clone()
	MatMulABTransAcc(got, a, bb)
	matsBitIdentical(t, name("MatMulABTransAcc"), got, want)
}

// TestMatMulKernelsAllocFree pins the steady-state allocation budget of
// every matmul entry point at zero, on every vector path the host runs, in
// both the serial (below parallelThreshold) and pool-dispatched (above it)
// regimes, including the pooled bᵀ scratch of the vector a·bᵀ kernels.
// The former parallelRows closure cost 1 alloc / 32 B on every call — this
// is the regression test for that fix (see chunkTask in pool.go).
func TestMatMulKernelsAllocFree(t *testing.T) {
	onVecPaths(t, checkMatMulKernelsAllocFree)
}

func checkMatMulKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, size := range []struct {
		name    string
		r, k, c int
	}{{"serial_24", 24, 24, 24}, {"parallel_128", 128, 128, 128}} {
		a := randMat(rng, size.r, size.k)
		b := randMat(rng, size.k, size.c)
		dst := NewMat(size.r, size.c)
		at := randMat(rng, size.r, size.k)
		bt := randMat(rng, size.r, size.c)
		dstT := NewMat(size.k, size.c)
		bb := randMat(rng, size.c, size.k)
		dstB := NewMat(size.r, size.c)
		run := func(name string, f func()) {
			t.Helper()
			if n := testing.AllocsPerRun(10, f); n != 0 {
				t.Errorf("%s/%s: %v allocs/op, want 0", size.name, name, n)
			}
		}
		run("MatMul", func() { MatMul(dst, a, b) })
		run("MatMulATransB", func() { MatMulATransB(dstT, at, bt) })
		run("MatMulABTrans", func() { MatMulABTrans(dstB, a, bb) })
		run("MatMulATransBAcc", func() { MatMulATransBAcc(dstT, at, bt) })
		run("MatMulABTransAcc", func() { MatMulABTransAcc(dstB, a, bb) })
	}
}

func benchMatMul256(b *testing.B, f func(dst, x, y *Mat)) {
	rng := rand.New(rand.NewSource(9))
	x := randMat(rng, 256, 256)
	y := randMat(rng, 256, 256)
	dst := NewMat(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(dst, x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	b.ReportAllocs()
	benchMatMul256(b, func(dst, x, y *Mat) { MatMul(dst, x, y) })
}

func BenchmarkMatMulATransB256(b *testing.B) {
	b.ReportAllocs()
	benchMatMul256(b, func(dst, x, y *Mat) { MatMulATransB(dst, x, y) })
}

func BenchmarkMatMulABTrans256(b *testing.B) {
	b.ReportAllocs()
	benchMatMul256(b, func(dst, x, y *Mat) { MatMulABTrans(dst, x, y) })
}

// BenchmarkMatMulTrainShapes times each kernel form at the offline
// training shapes on one goroutine, calling the range kernel directly: for
// a weight W of k×n, the forward a·b (128×k · W), the weight gradient aᵀ·b
// (128×k, 128×n) and the input gradient a·bᵀ (128×n · Wᵀ). k is the LSTM
// input 40, the hidden size 64 and the 104-wide head input; n is the 256
// gate columns and a 250-wide page head. Each runs on every vector path
// the host has and on the Go kernels; the vector a·bᵀ includes the
// transpose of W that matMulABTransAcc makes.
func BenchmarkMatMulTrainShapes(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(9))
	const rows = 128
	paths := append(vecPaths(b), kernelPath{name: "go"})
	for _, form := range []string{"ab", "atb", "abt"} {
		for _, kn := range [][2]int{{40, 256}, {64, 256}, {104, 256}, {104, 250}} {
			k, n := kn[0], kn[1]
			x, w, dy := randMat(rng, rows, k), randMat(rng, k, n), randMat(rng, rows, n)
			out, grad, dx, wt := NewMat(rows, n), NewMat(k, n), NewMat(rows, k), NewMat(n, k)
			for _, p := range paths {
				var f func()
				switch {
				case form == "ab" && p.avx2:
					f = func() { matMulAccVecRange(out, x, w, 0, rows) }
				case form == "ab":
					f = func() { matMulAccRange(out, x, w, 0, rows) }
				case form == "atb" && p.avx2:
					f = func() { matMulATransBVecRange(grad, x, dy, 0, k) }
				case form == "atb":
					f = func() { matMulATransBAccRange(grad, x, dy, 0, k) }
				case p.avx2:
					f = func() { transposeInto(wt, w); matMulABTransVecRange(dx, dy, wt, 0, rows) }
				default:
					f = func() { matMulABTransRange(dx, dy, w, 0, rows) }
				}
				b.Run(fmt.Sprintf("%s/w%dx%d/%s", form, k, n, p.name), func(b *testing.B) {
					p.use(b)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						f()
					}
				})
			}
		}
	}
}
