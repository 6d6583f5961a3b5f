// Package tensor provides dense float32 matrices and a reverse-mode
// automatic-differentiation tape. It is the numerical substrate for the
// neural layers in package nn and, transitively, for the Voyager prefetcher.
//
// The package is deliberately small: 2-D row-major matrices, a handful of
// blocked BLAS-like kernels dispatched onto a persistent shared worker pool
// (see pool.go), and a Tape that records differentiable operations so
// gradients can be computed with Backward.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
)

// Mat is a dense, row-major float32 matrix.
//
// The zero value is an empty matrix. Use NewMat (zeroed) or one of the
// initializer helpers to create usable matrices.
type Mat struct {
	Rows, Cols int
	Data       []float32
}

// NewMat returns a zeroed rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float32) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice len %d != %d*%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row r, column c.
func (m *Mat) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set stores v at row r, column c.
func (m *Mat) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice sharing the matrix's backing array.
func (m *Mat) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Mat) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Mat) SameShape(o *Mat) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Mat) shape() string { return fmt.Sprintf("%dx%d", m.Rows, m.Cols) }

// String renders small matrices fully and large ones as a shape summary.
func (m *Mat) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Mat(%s)", m.shape())
	}
	s := "["
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			s += "; "
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(r, c))
		}
	}
	return s + "]"
}

// AddInPlace computes m += o element-wise.
func (m *Mat) AddInPlace(o *Mat) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %s vs %s", m.shape(), o.shape()))
	}
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// ScaleInPlace computes m *= s element-wise.
func (m *Mat) ScaleInPlace(s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AxpyInPlace computes m += a*o element-wise.
func (m *Mat) AxpyInPlace(a float32, o *Mat) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: AxpyInPlace shape mismatch %s vs %s", m.shape(), o.shape()))
	}
	for i, v := range o.Data {
		m.Data[i] += a * v
	}
}

// MaxAbs returns the largest absolute value in m (0 for an empty matrix).
func (m *Mat) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// L2Norm returns the Euclidean norm of all elements.
func (m *Mat) L2Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Glorot fills m with Xavier/Glorot-uniform values: U(-l, l) with
// l = sqrt(6/(rows+cols)). This is the initialization used for all weight
// matrices in the model.
func (m *Mat) Glorot(rng *rand.Rand) {
	//lint:ignore f64promote one-time init bound, not a hot kernel; rounding here is harmless
	l := float32(math.Sqrt(6.0 / float64(m.Rows+m.Cols)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * l
	}
}

// Uniform fills m with U(-l, l) values.
func (m *Mat) Uniform(rng *rand.Rand, l float32) {
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * l
	}
}

// parallelThreshold is the amount of multiply-accumulate work below which
// MatMul runs single-threaded; tuned so tiny test matrices avoid pool
// dispatch overhead.
const parallelThreshold = 1 << 16

// kernelKTile is the dst-row tile for the transposed-A kernels: a tile of
// dst rows stays cache-resident while the input rows stream past it. All
// tilings preserve the serial kernels' per-element summation order
// (ascending k / ascending i), so blocked results are bit-identical to
// unblocked ones — a requirement for reproducible training.
const kernelKTile = 64

// Kernel numerics contract: the exact kernels below accumulate every output
// element in strictly ascending inner-index order (ascending k for a·b and
// a·bᵀ, ascending i for aᵀ·b), one float32 rounding per add, with no
// value-dependent branches. Zero inputs are NOT skipped, so IEEE semantics
// hold for non-finite and signed-zero inputs too: 0·Inf contributes NaN and
// -0 terms keep their sign, exactly like a naive triple loop (the former
// av == 0 skip branches diverged on such inputs; see TestMatMulNonFinite).
// On AVX2 hosts the same kernels run through mulAddRows (vec.go): four dst
// rows × sixteen columns per instruction in mulAdd4AVX512 where the CPU
// also has AVX-512F, and eight columns of one row per instruction in
// rowMulAddAVX2 for every other row. Both keep this contract lane by lane:
// a multiply then an add per term, never fused, in the same order. Which
// path ran never shows in the results.

// MatMul computes dst = a·b, allocating dst when nil. a is r×k, b is k×c.
//
//hot:path
func MatMul(dst, a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %s · %s", a.shape(), b.shape()))
	}
	if dst == nil {
		//lint:ignore hotalloc nil dst opts into allocation; steady-state callers pass a reused dst
		dst = NewMat(a.Rows, b.Cols)
	} else {
		if dst.Rows != a.Rows || dst.Cols != b.Cols {
			panic("tensor: MatMul dst shape mismatch")
		}
		dst.Zero()
	}
	matMulAcc(dst, a, b)
	return dst
}

// matMulAcc computes dst += a·b using an ikj loop order (streaming through
// rows of b), parallelized across rows of a when the work is large enough.
func matMulAcc(dst, a, b *Mat) {
	kern := matMulAccRange
	if useAVX2 {
		kern = matMulAccVecRange
	}
	runKernel(kern, a.Rows, a.Rows*a.Cols*b.Cols, dst, a, b)
}

// runKernel runs kern over [0, n) on the calling goroutine when the
// multiply-accumulate work is below parallelThreshold, else on the pool.
func runKernel(kern matKernel, n, work int, dst, a, b *Mat) {
	if work < parallelThreshold {
		kern(dst, a, b, 0, n)
		return
	}
	parallelKernel(n, kern, dst, a, b)
}

// matMulAccRange is the exact a·b kernel: per dst row, four b rows are fused
// into one branch-free pass so dst is loaded and stored once per four k
// terms instead of once per term. The adds per element stay sequential in
// ascending k (s += av0·b0[j]; s += av1·b1[j]; …), so results are
// bit-identical to the scalar ikj loop; the two-step reslices pin every
// row's length to n so the compiler drops the per-element bounds checks.
func matMulAccRange(dst, a, b *Mat, lo, hi int) {
	n := b.Cols
	kc := a.Cols
	if n == 0 {
		return
	}
	bd := b.Data
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)[:n]
		k := 0
		for ; k+4 <= kc; k += 4 {
			av0, av1, av2, av3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			b0 := bd[k*n:]
			b0 = b0[:n]
			b1 := bd[(k+1)*n:]
			b1 = b1[:n]
			b2 := bd[(k+2)*n:]
			b2 = b2[:n]
			b3 := bd[(k+3)*n:]
			b3 = b3[:n]
			for j := range drow {
				s := drow[j]
				s += av0 * b0[j]
				s += av1 * b1[j]
				s += av2 * b2[j]
				s += av3 * b3[j]
				drow[j] = s
			}
		}
		for ; k < kc; k++ {
			av := arow[k]
			brow := bd[k*n:]
			brow = brow[:n]
			for j := range drow {
				drow[j] += av * brow[j]
			}
		}
	}
}

// MatMulATransB computes dst = aᵀ·b where a is r×m and b is r×n, so dst is
// m×n. Used for weight gradients (xᵀ·dy). Allocates dst when nil.
//
//hot:path
func MatMulATransB(dst, a, b *Mat) *Mat {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATransB row mismatch %s vs %s", a.shape(), b.shape()))
	}
	if dst == nil {
		//lint:ignore hotalloc nil dst opts into allocation; steady-state callers pass a reused dst
		dst = NewMat(a.Cols, b.Cols)
	} else {
		if dst.Rows != a.Cols || dst.Cols != b.Cols {
			panic("tensor: MatMulATransB dst shape mismatch")
		}
		dst.Zero()
	}
	// dst[k][j] += a[i][k] * b[i][j]; parallelize over columns of a (rows of
	// dst) so goroutines never write the same dst row. On the zeroed dst the
	// vector kernel's tmp-then-add form gives the same bits: a sum that
	// starts at +0 is never -0, so +0 + sum == sum.
	kern := matMulATransBRange
	if useAVX2 {
		kern = matMulATransBVecRange
	}
	runKernel(kern, a.Cols, a.Rows*a.Cols*b.Cols, dst, a, b)
	return dst
}

// matMulATransBRange is blocked over dst rows: a kernelKTile-row tile of dst
// stays cache-resident while the rows of a/b stream past it, four at a time
// fused into one branch-free pass (dst loaded/stored once per four input
// rows). Per dst element the adds stay sequential in ascending i, so
// results are bit-identical to the scalar kernel.
func matMulATransBRange(dst, a, b *Mat, lo, hi int) {
	n := b.Cols
	if n == 0 {
		return
	}
	rows := a.Rows
	dd := dst.Data
	for t0 := lo; t0 < hi; t0 += kernelKTile {
		t1 := t0 + kernelKTile
		if t1 > hi {
			t1 = hi
		}
		i := 0
		for ; i+4 <= rows; i += 4 {
			a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
			b0 := b.Row(i)[:n]
			b1 := b.Row(i + 1)[:n]
			b2 := b.Row(i + 2)[:n]
			b3 := b.Row(i + 3)[:n]
			for k := t0; k < t1; k++ {
				av0, av1, av2, av3 := a0[k], a1[k], a2[k], a3[k]
				drow := dd[k*n:]
				drow = drow[:n]
				for j := range drow {
					s := drow[j]
					s += av0 * b0[j]
					s += av1 * b1[j]
					s += av2 * b2[j]
					s += av3 * b3[j]
					drow[j] = s
				}
			}
		}
		for ; i < rows; i++ {
			arow := a.Row(i)
			brow := b.Row(i)[:n]
			for k := t0; k < t1; k++ {
				av := arow[k]
				drow := dd[k*n:]
				drow = drow[:n]
				for j := range drow {
					drow[j] += av * brow[j]
				}
			}
		}
	}
}

// MatMulABTrans computes dst = a·bᵀ where a is r×k and b is n×k, so dst is
// r×n. Used for input gradients (dy·Wᵀ). Allocates dst when nil.
//
//hot:path
func MatMulABTrans(dst, a, b *Mat) *Mat {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABTrans col mismatch %s vs %s", a.shape(), b.shape()))
	}
	if dst == nil {
		//lint:ignore hotalloc nil dst opts into allocation; steady-state callers pass a reused dst
		dst = NewMat(a.Rows, b.Rows)
	} else {
		if dst.Rows != a.Rows || dst.Cols != b.Rows {
			panic("tensor: MatMulABTrans dst shape mismatch")
		}
		dst.Zero()
	}
	matMulABTransAcc(dst, a, b)
	return dst
}

// MatMulABTransAcc computes dst += a·bᵀ in place — the input-gradient update
// dx += dy·Wᵀ. The kernel accumulates each dot product in registers and adds
// it to dst once, so the result is bit-identical to the former
// tmp = a·bᵀ; dst += tmp formulation while allocating nothing.
//
//hot:path
func MatMulABTransAcc(dst, a, b *Mat) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABTransAcc col mismatch %s vs %s", a.shape(), b.shape()))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulABTransAcc dst shape mismatch")
	}
	matMulABTransAcc(dst, a, b)
}

// matMulABTransAcc computes dst += a·bᵀ, parallelized across rows of a. The
// vector kernel needs b's columns contiguous, so bᵀ is built once per call,
// before the split, in a scratch matrix from tileScratch.
func matMulABTransAcc(dst, a, b *Mat) {
	work := a.Rows * a.Cols * b.Rows
	if !useAVX2 {
		runKernel(matMulABTransRange, a.Rows, work, dst, a, b)
		return
	}
	bt := scratchMat(b.Cols, b.Rows)
	transposeInto(bt, b)
	runKernel(matMulABTransVecRange, a.Rows, work, dst, a, bt)
	releaseScratch(bt)
}

// tileScratch is a free list of scratch matrices: the per-goroutine
// accumulation tiles of matMulATransBAccRange and the bᵀ copies of
// matMulABTransAcc. It holds *Mat, so a scratch matrix can be a
// parallelKernel operand. It is a buffered channel rather than a sync.Pool
// so steady-state calls allocate nothing in every build; under the race
// detector a sync.Pool drops a quarter of its Puts. Like poolTasks it holds
// four entries per P, which covers every chunk of a few concurrent calls;
// a matrix returned to a full list is left to the GC.
var tileScratch = make(chan *Mat, 4*runtime.GOMAXPROCS(0))

// scratchMat checks out a rows×cols scratch matrix with undefined contents;
// return it with releaseScratch.
func scratchMat(rows, cols int) *Mat {
	var m *Mat
	select {
	case m = <-tileScratch:
	default:
		m = new(Mat)
	}
	if cap(m.Data) < rows*cols {
		m.Data = make([]float32, rows*cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// releaseScratch returns a matrix from scratchMat to tileScratch.
func releaseScratch(m *Mat) {
	select {
	case tileScratch <- m:
	default:
	}
}

// MatMulATransBAcc computes dst += aᵀ·b in place — the weight-gradient
// update dW += xᵀ·dy. The ATransB kernel accumulates into memory across input
// rows, so adding straight into a non-zero dst would fold dst's prior value
// into the partial sums and change the float32 result; instead each
// kernelKTile-row tile accumulates in a pooled scratch buffer (same
// per-element order as a zeroed tmp) and is added to dst once, keeping the
// result bit-identical to tmp = aᵀ·b; dst += tmp with zero allocations. The
// vector kernel keeps each element's sum in a register instead of a tile.
//
//hot:path
func MatMulATransBAcc(dst, a, b *Mat) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATransBAcc row mismatch %s vs %s", a.shape(), b.shape()))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulATransBAcc dst shape mismatch")
	}
	kern := matMulATransBAccRange
	if useAVX2 {
		kern = matMulATransBVecRange
	}
	runKernel(kern, a.Cols, a.Rows*a.Cols*b.Cols, dst, a, b)
}

func matMulATransBAccRange(dst, a, b *Mat, lo, hi int) {
	n := b.Cols
	if n == 0 {
		return
	}
	tm := scratchMat(min(kernelKTile, hi-lo), n)
	scratch := tm.Data
	rows := a.Rows
	for t0 := lo; t0 < hi; t0 += kernelKTile {
		t1 := t0 + kernelKTile
		if t1 > hi {
			t1 = hi
		}
		tile := scratch[:(t1-t0)*n]
		for i := range tile {
			tile[i] = 0
		}
		i := 0
		for ; i+4 <= rows; i += 4 {
			a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
			b0 := b.Row(i)[:n]
			b1 := b.Row(i + 1)[:n]
			b2 := b.Row(i + 2)[:n]
			b3 := b.Row(i + 3)[:n]
			for k := t0; k < t1; k++ {
				av0, av1, av2, av3 := a0[k], a1[k], a2[k], a3[k]
				srow := tile[(k-t0)*n:]
				srow = srow[:n]
				for j := range srow {
					s := srow[j]
					s += av0 * b0[j]
					s += av1 * b1[j]
					s += av2 * b2[j]
					s += av3 * b3[j]
					srow[j] = s
				}
			}
		}
		for ; i < rows; i++ {
			arow := a.Row(i)
			brow := b.Row(i)[:n]
			for k := t0; k < t1; k++ {
				av := arow[k]
				srow := tile[(k-t0)*n:]
				srow = srow[:n]
				for j := range srow {
					srow[j] += av * brow[j]
				}
			}
		}
		for k := t0; k < t1; k++ {
			drow := dst.Data[k*n:]
			drow = drow[:n]
			srow := tile[(k-t0)*n:]
			srow = srow[:n]
			for j := range drow {
				drow[j] += srow[j]
			}
		}
	}
	releaseScratch(tm)
}

// matMulABTransRange computes four dot products per pass of arow (a 1×4
// micro-kernel): four independent accumulators give the compiler ILP and cut
// loop overhead 4×. Each dot still sums over ascending k one rounding at a
// time, so results are bit-identical to the scalar kernel; the b rows are
// resliced to len(arow) so the inner loop runs without bounds checks.
func matMulABTransRange(dst, a, b *Mat, lo, hi int) {
	kc := a.Cols
	brows := b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Row(i)[:kc]
		drow := dst.Row(i)
		j := 0
		for ; j+4 <= brows; j += 4 {
			b0 := b.Row(j)[:kc]
			b1 := b.Row(j + 1)[:kc]
			b2 := b.Row(j + 2)[:kc]
			b3 := b.Row(j + 3)[:kc]
			var s0, s1, s2, s3 float32
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			drow[j] += s0
			drow[j+1] += s1
			drow[j+2] += s2
			drow[j+3] += s3
		}
		for ; j < brows; j++ {
			brow := b.Row(j)[:kc]
			var s float32
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] += s
		}
	}
}
