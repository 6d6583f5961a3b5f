package tensor

// The vector kernels: the exact kernels of mat.go rebuilt on one row
// primitive, rowMulAddAVX2, which computes eight output columns per
// instruction. They run only when useAVX2 is set, and they give every
// output element the float32 roundings of the Go kernels, which stay the
// reference the tests compare them against.

// rowMulAdd computes d[j] += Σ_k a[k·astride]·b[k·ldb+j] for every column j
// of d, where b is the kc×ldb matrix bm and len(d) == ldb. The terms of
// each column are added in ascending k, one multiply and one add each.
// With fromZero the sum starts at +0 and is added to d[j] once, the
// tmp-then-add form of the Acc kernels; otherwise it starts at d[j].
// rowMulAddAVX2 takes the columns below the last multiple of 8, and the
// rest run here in the same order.
func rowMulAdd(d, a []float32, astride int, bm *Mat, fromZero bool) {
	kc, ldb, b := bm.Rows, bm.Cols, bm.Data
	n := len(d)
	if kc > 0 && n > 0 {
		// The assembly checks no bounds, so check its last reads here.
		_ = a[(kc-1)*astride]
		_ = b[(kc-1)*ldb+n-1]
	}
	n8 := n &^ 7
	if n8 > 0 {
		rowMulAddAVX2(d[:n8], a, b, kc, astride, ldb, fromZero)
	}
	for j := n8; j < n; j++ {
		var s float32
		if !fromZero {
			s = d[j]
		}
		for k := 0; k < kc; k++ {
			s += a[k*astride] * b[k*ldb+j]
		}
		if fromZero {
			d[j] += s
		} else {
			d[j] = s
		}
	}
}

// matMulAccVecRange is matMulAccRange on rowMulAdd: one call per row of a,
// accumulating straight into dst.
func matMulAccVecRange(dst, a, b *Mat, lo, hi int) {
	for i := lo; i < hi; i++ {
		rowMulAdd(dst.Row(i), a.Row(i), 1, b, false)
	}
}

// matMulATransBVecRange is matMulATransBAccRange on rowMulAdd: dst row k
// walks column k of a, and its sums start from +0.
func matMulATransBVecRange(dst, a, b *Mat, lo, hi int) {
	for k := lo; k < hi; k++ {
		// Column k starts at a.Data[k]; a with no rows has no data to slice.
		rowMulAdd(dst.Row(k), a.Data[min(k, len(a.Data)):], a.Cols, b, true)
	}
}

// matMulABTransVecRange is matMulABTransRange on rowMulAdd, given bt = bᵀ:
// the dot product of a row of a and a row of b becomes a walk down a
// column of bt, and its sums start from +0.
func matMulABTransVecRange(dst, a, bt *Mat, lo, hi int) {
	for i := lo; i < hi; i++ {
		rowMulAdd(dst.Row(i), a.Row(i), 1, bt, true)
	}
}

// transposeInto stores bᵀ in t, which must be b.Cols×b.Rows.
func transposeInto(t, b *Mat) {
	for i := 0; i < b.Rows; i++ {
		for j, v := range b.Row(i) {
			t.Data[j*b.Rows+i] = v
		}
	}
}
