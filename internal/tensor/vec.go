package tensor

// The vector kernels: the exact kernels of mat.go rebuilt on one
// primitive, mulAddRows. It runs four dst rows at a time on the AVX-512F
// kernel mulAdd4AVX512 (sixteen columns per instruction) when useAVX512 is
// set, and every other row one at a time on rowMulAddAVX2 (eight columns
// per instruction). The vector kernels run only when useAVX2 is set, and
// they give every output element the float32 roundings of the Go kernels,
// which stay the reference the tests compare them against.

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

// mulAddRows computes, for each of the rows dst rows r and every column j
// of bm, d[r·n+j] += Σ_k a[r·lda+k·astride]·bm[k][j], n = bm.Cols, with
// the terms and fromZero of rowMulAdd. On AVX-512 hosts the rows go four
// at a time, so each b vector loaded serves four rows; the one to three
// left over, and every row elsewhere, run one at a time on rowMulAdd.
func mulAddRows(d, a []float32, lda, astride int, bm *Mat, rows int, fromZero bool) {
	kc, n, b := bm.Rows, bm.Cols, bm.Data
	r := 0
	if useAVX512 && rows >= 4 && n > 0 {
		// The assembly checks no bounds, so check its last reads here.
		// With kc = 0 it reads no a, which may then be empty.
		blocks := rows &^ 3
		_ = d[blocks*n-1]
		if kc > 0 {
			_ = a[(blocks-1)*lda+(kc-1)*astride]
			_ = b[kc*n-1]
		}
		for ; r < blocks; r += 4 {
			mulAdd4AVX512(d[r*n:], a[min(r*lda, len(a)):], b, kc, n, lda, astride, fromZero)
		}
	}
	for ; r < rows; r++ {
		rowMulAdd(d[r*n:(r+1)*n], a[min(r*lda, len(a)):], astride, bm, fromZero)
	}
}

// matMulAccVecRange is matMulAccRange on mulAddRows: the rows of a,
// accumulating straight into dst.
func matMulAccVecRange(dst, a, b *Mat, lo, hi int) {
	mulAddRows(dst.Data[lo*b.Cols:], a.Data[lo*a.Cols:], a.Cols, 1, b, hi-lo, false)
}

// matMulATransBVecRange is matMulATransBAccRange on mulAddRows: dst row k
// walks column k of a, and its sums start from +0.
func matMulATransBVecRange(dst, a, b *Mat, lo, hi int) {
	// Column k starts at a.Data[k]; a with no rows has no data to slice.
	mulAddRows(dst.Data[lo*b.Cols:], a.Data[min(lo, len(a.Data)):], 1, a.Cols, b, hi-lo, true)
}

// matMulABTransVecRange is matMulABTransRange on mulAddRows, given bt = bᵀ:
// the dot product of a row of a and a row of b becomes a walk down a
// column of bt, and its sums start from +0.
func matMulABTransVecRange(dst, a, bt *Mat, lo, hi int) {
	mulAddRows(dst.Data[lo*bt.Cols:], a.Data[lo*a.Cols:], a.Cols, 1, bt, hi-lo, true)
}

// transposeInto stores bᵀ in t, which must be b.Cols×b.Rows.
func transposeInto(t, b *Mat) {
	for i := 0; i < b.Rows; i++ {
		for j, v := range b.Row(i) {
			t.Data[j*b.Rows+i] = v
		}
	}
}

// AdamCoeffs are the float32 constants of one Adam update, as nn.Adam
// computes them: the step's hyperparameters, 1 - Beta1 and 1 - Beta2, the
// bias corrections BC1 and BC2, and Clip, the bound on each gradient
// element's magnitude (+Inf for none). adamAVX2 reads the fields by
// offset, in this order.
type AdamCoeffs struct {
	LR, Beta1, OneMinusBeta1, Beta2, OneMinusBeta2, Eps, Clip, BC1, BC2 float32
}

// AdamUpdate applies Adam's update to the leading n elements of w, m and v
// from g, and returns n: the last multiple of 8 in len(w) where the host
// has AVX2, else 0. The caller runs the rest. Element i becomes, in
// float32 and in this order, with no fused multiply-add:
//
//	gi := g[i] clipped to [-Clip, Clip] (a NaN stays NaN)
//	m[i] = Beta1*m[i] + OneMinusBeta1*gi
//	v[i] = Beta2*v[i] + OneMinusBeta2*gi*gi
//	w[i] -= LR*(m[i]/BC1) / (float32(math.Sqrt(float64(v[i]/BC2))) + Eps)
//
// g, m and v must be at least as long as w.
func AdamUpdate(w, g, m, v []float32, k *AdamCoeffs) int {
	n := len(w) &^ 7
	if !useAVX2 || n == 0 {
		return 0
	}
	_, _, _ = g[n-1], m[n-1], v[n-1]
	adamAVX2(w, g, m, v, k)
	return n
}
