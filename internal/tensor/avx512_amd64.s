#include "textflag.h"

// The AVX-512F exact matmul kernel. For each of the four dst rows r and
// each column j in [0, n):
//
//	s := d[r*n+j]                        (fromZero: s := +0)
//	for k := 0; k < kc; k++ { s += a[r*lda+k*astride] * b[k*n+j] }
//	d[r*n+j] = s                         (fromZero: d[r*n+j] += s)
//
// Every term is one VMULPS then one VADDPS, k ascending, never fused, with
// the operands in rowMulAddAVX2's order, so each lane gets the float32
// roundings of the Go kernels. Columns go in blocks of 64: four ZMM
// vectors per row, each b vector loaded once per k and multiplied by every
// row's broadcast a value. A row's last block holds its n mod 64 leftover
// columns in as few vectors as cover them, the last one under the lane
// mask K1, so no column is left to Go.
//
// Registers: DI d, SI a, DX b, R11 the byte stride n·4 of d's and b's
// rows, R8 lda·4, R10 3·lda·4, R9 astride·4, BX the block's byte offset
// in a row, AX the k count, R12/R13 the a and b walks over k (and the dst
// row addresses around the walk), CX scratch. Z0–Z15 hold the sums (row r's
// vector v in Z(4r+v)), Z16–Z19 b, Z20–Z23 the broadcast a values, Z24–Z27
// the products.

// TERM adds the product a·b to the sum s: one rounding each, never fused.
#define TERM(bv, av, s, p) VMULPS bv, av, p; VADDPS p, s, s

// Four rows: the terms of one b vector, the broadcasts of one k, and the
// sums of one column vector at byte offset off of the block, where R12
// addresses row 0 and R13 row 2. The M forms take the masked last vector.
#define TERMS4(bv, s0, s1, s2, s3) TERM(bv, Z20, s0, Z24); TERM(bv, Z21, s1, Z25); TERM(bv, Z22, s2, Z26); TERM(bv, Z23, s3, Z27)
#define BCAST4 VBROADCASTSS (R12), Z20; VBROADCASTSS (R12)(R8*1), Z21; VBROADCASTSS (R12)(R8*2), Z22; VBROADCASTSS (R12)(R10*1), Z23
#define ROWS4 LEAQ (DI)(BX*1), R12; LEAQ (R12)(R11*2), R13
#define LOAD4(off, s0, s1, s2, s3) VMOVUPS off(R12), s0; VMOVUPS off(R12)(R11*1), s1; VMOVUPS off(R13), s2; VMOVUPS off(R13)(R11*1), s3
#define LOAD4M(off, s0, s1, s2, s3) VMOVUPS.Z off(R12), K1, s0; VMOVUPS.Z off(R12)(R11*1), K1, s1; VMOVUPS.Z off(R13), K1, s2; VMOVUPS.Z off(R13)(R11*1), K1, s3
#define ADD4(off, s0, s1, s2, s3) VADDPS off(R12), s0, s0; VADDPS off(R12)(R11*1), s1, s1; VADDPS off(R13), s2, s2; VADDPS off(R13)(R11*1), s3, s3
#define ADD4M(off, s0, s1, s2, s3) VMOVUPS.Z off(R12), K1, Z24; VADDPS Z24, s0, s0; VMOVUPS.Z off(R12)(R11*1), K1, Z25; VADDPS Z25, s1, s1; VMOVUPS.Z off(R13), K1, Z26; VADDPS Z26, s2, s2; VMOVUPS.Z off(R13)(R11*1), K1, Z27; VADDPS Z27, s3, s3
#define STORE4(off, s0, s1, s2, s3) VMOVUPS s0, off(R12); VMOVUPS s1, off(R12)(R11*1); VMOVUPS s2, off(R13); VMOVUPS s3, off(R13)(R11*1)
#define STORE4M(off, s0, s1, s2, s3) VMOVUPS s0, K1, off(R12); VMOVUPS s1, K1, off(R12)(R11*1); VMOVUPS s2, K1, off(R13); VMOVUPS s3, K1, off(R13)(R11*1)

// ZERO clears the sums before a fromZero block.
#define ZERO VPXORD Z0, Z0, Z0; VPXORD Z1, Z1, Z1; VPXORD Z2, Z2, Z2; VPXORD Z3, Z3, Z3; VPXORD Z4, Z4, Z4; VPXORD Z5, Z5, Z5; VPXORD Z6, Z6, Z6; VPXORD Z7, Z7, Z7; VPXORD Z8, Z8, Z8; VPXORD Z9, Z9, Z9; VPXORD Z10, Z10, Z10; VPXORD Z11, Z11, Z11; VPXORD Z12, Z12, Z12; VPXORD Z13, Z13, Z13; VPXORD Z14, Z14, Z14; VPXORD Z15, Z15, Z15

// WALK points R12 and R13 at k = 0 of the block and loads the k count; a
// block with no terms jumps to its store.
#define WALK(store) MOVQ SI, R12; LEAQ (DX)(BX*1), R13; MOVQ kc+72(FP), AX; TESTQ AX, AX; JZ store
#define NEXTK ADDQ R9, R12; ADDQ R11, R13; DECQ AX

// BLOCKMASK sets K1 to the lanes of the block's last vector, given the
// bytes left in the row in AX (over 256 counts as 256), and leaves the
// clamped count in AX.
#define BLOCKMASK MOVQ $256, CX; CMPQ AX, CX; CMOVQGT CX, AX; MOVQ AX, CX; SHRQ $2, CX; DECQ CX; ANDQ $15, CX; MOVL $2, R12; SHLL CX, R12; DECL R12; KMOVW R12, K1

// func mulAdd4AVX512(d, a, b []float32, kc, n, lda, astride int, fromZero bool)
TEXT ·mulAdd4AVX512(SB), NOSPLIT, $0-105
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ n+80(FP), R11
	SHLQ $2, R11
	MOVQ lda+88(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R10
	MOVQ astride+96(FP), R9
	SHLQ $2, R9
	XORQ BX, BX

block4:
	MOVQ R11, AX
	SUBQ BX, AX
	JLE  done4
	BLOCKMASK
	ZERO
	CMPQ AX, $192
	JGT  v4
	CMPQ AX, $128
	JGT  v3
	CMPQ AX, $64
	JGT  v2

	// One vector per row.
	ROWS4
	CMPB fromZero+104(FP), $0
	JNE  v1terms
	LOAD4M(0, Z0, Z4, Z8, Z12)

v1terms:
	WALK(v1store)

v1k:
	BCAST4
	VMOVUPS.Z (R13), K1, Z16
	TERMS4(Z16, Z0, Z4, Z8, Z12)
	NEXTK
	JNZ       v1k

v1store:
	ROWS4
	CMPB fromZero+104(FP), $0
	JE   v1put
	ADD4M(0, Z0, Z4, Z8, Z12)

v1put:
	STORE4M(0, Z0, Z4, Z8, Z12)
	JMP done4

	// Two vectors per row.
v2:
	ROWS4
	CMPB fromZero+104(FP), $0
	JNE  v2terms
	LOAD4(0, Z0, Z4, Z8, Z12)
	LOAD4M(64, Z1, Z5, Z9, Z13)

v2terms:
	WALK(v2store)

v2k:
	BCAST4
	VMOVUPS   (R13), Z16
	VMOVUPS.Z 64(R13), K1, Z17
	TERMS4(Z16, Z0, Z4, Z8, Z12)
	TERMS4(Z17, Z1, Z5, Z9, Z13)
	NEXTK
	JNZ       v2k

v2store:
	ROWS4
	CMPB fromZero+104(FP), $0
	JE   v2put
	ADD4(0, Z0, Z4, Z8, Z12)
	ADD4M(64, Z1, Z5, Z9, Z13)

v2put:
	STORE4(0, Z0, Z4, Z8, Z12)
	STORE4M(64, Z1, Z5, Z9, Z13)
	JMP done4

	// Three vectors per row.
v3:
	ROWS4
	CMPB fromZero+104(FP), $0
	JNE  v3terms
	LOAD4(0, Z0, Z4, Z8, Z12)
	LOAD4(64, Z1, Z5, Z9, Z13)
	LOAD4M(128, Z2, Z6, Z10, Z14)

v3terms:
	WALK(v3store)

v3k:
	BCAST4
	VMOVUPS   (R13), Z16
	VMOVUPS   64(R13), Z17
	VMOVUPS.Z 128(R13), K1, Z18
	TERMS4(Z16, Z0, Z4, Z8, Z12)
	TERMS4(Z17, Z1, Z5, Z9, Z13)
	TERMS4(Z18, Z2, Z6, Z10, Z14)
	NEXTK
	JNZ       v3k

v3store:
	ROWS4
	CMPB fromZero+104(FP), $0
	JE   v3put
	ADD4(0, Z0, Z4, Z8, Z12)
	ADD4(64, Z1, Z5, Z9, Z13)
	ADD4M(128, Z2, Z6, Z10, Z14)

v3put:
	STORE4(0, Z0, Z4, Z8, Z12)
	STORE4(64, Z1, Z5, Z9, Z13)
	STORE4M(128, Z2, Z6, Z10, Z14)
	JMP done4

	// Four vectors per row: every full block, and a leftover of 49–63.
v4:
	ROWS4
	CMPB fromZero+104(FP), $0
	JNE  v4terms
	LOAD4(0, Z0, Z4, Z8, Z12)
	LOAD4(64, Z1, Z5, Z9, Z13)
	LOAD4(128, Z2, Z6, Z10, Z14)
	LOAD4M(192, Z3, Z7, Z11, Z15)

v4terms:
	WALK(v4store)

v4k:
	BCAST4
	VMOVUPS   (R13), Z16
	VMOVUPS   64(R13), Z17
	VMOVUPS   128(R13), Z18
	VMOVUPS.Z 192(R13), K1, Z19
	TERMS4(Z16, Z0, Z4, Z8, Z12)
	TERMS4(Z17, Z1, Z5, Z9, Z13)
	TERMS4(Z18, Z2, Z6, Z10, Z14)
	TERMS4(Z19, Z3, Z7, Z11, Z15)
	NEXTK
	JNZ       v4k

v4store:
	ROWS4
	CMPB fromZero+104(FP), $0
	JE   v4put
	ADD4(0, Z0, Z4, Z8, Z12)
	ADD4(64, Z1, Z5, Z9, Z13)
	ADD4(128, Z2, Z6, Z10, Z14)
	ADD4M(192, Z3, Z7, Z11, Z15)

v4put:
	STORE4(0, Z0, Z4, Z8, Z12)
	STORE4(64, Z1, Z5, Z9, Z13)
	STORE4(128, Z2, Z6, Z10, Z14)
	STORE4M(192, Z3, Z7, Z11, Z15)
	ADDQ $256, BX
	JMP  block4

done4:
	VZEROUPPER
	RET
