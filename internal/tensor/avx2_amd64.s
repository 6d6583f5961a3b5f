#include "textflag.h"

// func rowMulAddAVX2(d, a, b []float32, kc, astride, ldb int, fromZero bool)
//
// For j in [0, len(d)), len(d) a multiple of 8:
//
//	s := d[j]                      (fromZero: s := +0)
//	for k := 0; k < kc; k++ { s += a[k*astride] * b[k*ldb+j] }
//	d[j] = s                       (fromZero: d[j] += s)
//
// Every term is one VMULPS then one VADDPS, k ascending, never fused, so
// each lane gets the float32 roundings of the scalar loop. Columns go in
// blocks of 32 (four accumulators), then blocks of 8.
TEXT ·rowMulAddAVX2(SB), NOSPLIT, $0-97
	MOVQ    d_base+0(FP), DI
	MOVQ    d_len+8(FP), CX
	SHLQ    $2, CX
	MOVQ    a_base+24(FP), SI
	MOVQ    b_base+48(FP), DX
	MOVQ    kc+72(FP), R10
	MOVQ    astride+80(FP), R8
	SHLQ    $2, R8
	MOVQ    ldb+88(FP), R9
	SHLQ    $2, R9
	MOVBLZX fromZero+96(FP), R11
	XORQ    BX, BX

block32:
	LEAQ  128(BX), AX
	CMPQ  AX, CX
	JGT   block8
	TESTQ R11, R11
	JNZ   zero32
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS 32(DI)(BX*1), Y1
	VMOVUPS 64(DI)(BX*1), Y2
	VMOVUPS 96(DI)(BX*1), Y3
	JMP   terms32

zero32:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

terms32:
	MOVQ  SI, R12
	LEAQ  (DX)(BX*1), R13
	MOVQ  R10, AX
	TESTQ AX, AX
	JZ    store32

k32:
	VBROADCASTSS (R12), Y4
	VMULPS       (R13), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(R13), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       64(R13), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       96(R13), Y4, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         R8, R12
	ADDQ         R9, R13
	DECQ         AX
	JNZ          k32

store32:
	TESTQ R11, R11
	JZ    put32
	VADDPS (DI)(BX*1), Y0, Y0
	VADDPS 32(DI)(BX*1), Y1, Y1
	VADDPS 64(DI)(BX*1), Y2, Y2
	VADDPS 96(DI)(BX*1), Y3, Y3

put32:
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	JMP     block32

block8:
	LEAQ  32(BX), AX
	CMPQ  AX, CX
	JGT   done
	TESTQ R11, R11
	JNZ   zero8
	VMOVUPS (DI)(BX*1), Y0
	JMP   terms8

zero8:
	VXORPS Y0, Y0, Y0

terms8:
	MOVQ  SI, R12
	LEAQ  (DX)(BX*1), R13
	MOVQ  R10, AX
	TESTQ AX, AX
	JZ    store8

k8:
	VBROADCASTSS (R12), Y4
	VMULPS       (R13), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         R8, R12
	ADDQ         R9, R13
	DECQ         AX
	JNZ          k8

store8:
	TESTQ R11, R11
	JZ    put8
	VADDPS (DI)(BX*1), Y0, Y0

put8:
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     block8

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
