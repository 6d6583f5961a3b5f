package tensor

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// naive reference kernels: the textbook triple loops the blocked kernels
// must match bit-for-bit (the blocked kernels only re-tile the iteration
// space; they never reassociate a dst element's summation order).

func refMatMulPool(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

func refATransBPool(a, b *Mat) *Mat {
	out := NewMat(a.Cols, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.Cols; j++ {
				out.Data[k*b.Cols+j] += av * b.At(i, j)
			}
		}
	}
	return out
}

func refABTransPool(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Data[i*b.Rows+j] += s
		}
	}
	return out
}

func randMatSparse(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
		if rng.Intn(8) == 0 {
			m.Data[i] = 0 // exercise the zero-skip paths
		}
	}
	return m
}

func mustEqualBits(t *testing.T, name string, got, want *Mat) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// Shapes straddle the kernelKTile and parallelThreshold boundaries so the
// blocked, remainder, and pooled paths are all exercised.
func TestBlockedKernelsBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ r, k, c int }{
		{1, 1, 1},
		{3, 5, 7},
		{8, kernelKTile, 16},
		{7, kernelKTile + 3, 33},
		{5, 2*kernelKTile + 1, 9},
		{64, 96, 80}, // above parallelThreshold: pooled dispatch
		{65, 130, 67},
	}
	for _, s := range shapes {
		a := randMatSparse(rng, s.r, s.k)
		b := randMatSparse(rng, s.k, s.c)
		mustEqualBits(t, "MatMul", MatMul(nil, a, b), refMatMulPool(a, b))

		at := randMatSparse(rng, s.k, s.r) // aᵀ·b: a is k×r, b is k×c, dst r×c
		bt := randMatSparse(rng, s.k, s.c)
		mustEqualBits(t, "MatMulATransB", MatMulATransB(nil, at, bt), refATransBPool(at, bt))

		ab := randMatSparse(rng, s.r, s.k) // a·bᵀ: a is r×k, b is c×k, dst r×c
		bb := randMatSparse(rng, s.c, s.k)
		mustEqualBits(t, "MatMulABTrans", MatMulABTrans(nil, ab, bb), refABTransPool(ab, bb))
	}
}

// TestParallelKernelChunksWholeBlocks checks, on every vector path the
// host runs, that parallelKernel covers [0, n) once, and on the AVX-512
// path in chunks that start on a 4-row boundary, so mulAdd4AVX512's blocks
// never straddle two chunks (on two workers 130 rows split 68/62 there,
// 65/65 elsewhere).
func TestParallelKernelChunksWholeBlocks(t *testing.T) {
	onVecPaths(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 5, 8, 9, 130, 131, 1000} {
			hits := make([]int32, n)
			var misaligned atomic.Int32
			parallelKernel(n, func(_, _, _ *Mat, lo, hi int) {
				if lo%4 != 0 {
					misaligned.Add(1)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			}, nil, nil, nil)
			if m := misaligned.Load(); useAVX512 && m != 0 {
				t.Errorf("n=%d: %d chunks start off a 4-row boundary", n, m)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d: row %d visited %d times", n, i, h)
				}
			}
		}
	})
}

func TestRunTasksRunsEachIndexOnce(t *testing.T) {
	for _, k := range []int{0, 1, 2, 8} {
		hits := make([]int32, k)
		RunTasks(k, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("k=%d: task %d ran %d times", k, i, h)
			}
		}
	}
}

// Tasks started by RunTasks, and the children of a concurrent Fork (which
// run on RunTasks), may themselves run pooled kernels; the combination must
// not deadlock (pool workers only ever run leaf chunks).
func TestNestedRunTasksParallelNoDeadlock(t *testing.T) {
	var total atomic.Int64
	count := func(_, _, _ *Mat, lo, hi int) { total.Add(int64(hi - lo)) }
	RunTasks(8, func(int) { parallelKernel(1000, count, nil, nil, nil) })
	NewTape().Fork(4, forkThreshold, func(int, *Tape) {
		parallelKernel(1000, count, nil, nil, nil)
		RunTasks(2, func(int) { parallelKernel(1000, count, nil, nil, nil) })
	})
	if got := total.Load(); got != 20000 {
		t.Fatalf("total %d want 20000", got)
	}
}
