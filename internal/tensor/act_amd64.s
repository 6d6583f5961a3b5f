#include "textflag.h"

// The activations, four float64 lanes per instruction, with the roundings
// of exp64, sigmoid32 and tanh32 in act.go. Inputs are widened from
// float32 exactly and results narrowed with the default round-to-nearest,
// as Go's conversions do.

// Each constant is stored four times, one copy per lane, so it can be a
// 256-bit memory operand.
#define DUP4(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

DUP4(log2e, $1.4426950408889634073599246810018920)
DUP4(ln2u, $0.69314718055966295651160180568695068359375)
DUP4(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
DUP4(sixteenth, $0.0625)
DUP4(rfact8, $2.4801587301587301587e-5)
DUP4(rfact7, $1.9841269841269841270e-4)
DUP4(rfact6, $1.3888888888888888889e-3)
DUP4(rfact5, $8.3333333333333333333e-3)
DUP4(rfact4, $4.1666666666666666667e-2)
DUP4(rfact3, $1.6666666666666666667e-1)
DUP4(half, $0.5)
DUP4(one, $1.0)
DUP4(two, $2.0)
DUP4(expbias, $0x3FF)
DUP4(absmask, $0x7FFFFFFFFFFFFFFF)
DUP4(signmask, $0x8000000000000000)
DUP4(sigmoidmax, $700.0)
DUP4(tanhmax, $44.0)
DUP4(tanhmid, $0.625)
DUP4(tanhp0, $-9.64399179425052238628e-1)
DUP4(tanhp1, $-9.92877231001918586564e1)
DUP4(tanhp2, $-1.61468768441708447952e3)
DUP4(tanhq0, $1.12811678491632931402e2)
DUP4(tanhq1, $2.23548839060100448583e3)
DUP4(tanhq2, $4.84406305325125486048e3)

// EXP4 replaces each lane x of Y0 with exp64(x), for x in exp64's normal
// branch (2**k a normal float64, which |x| <= 700 ensures). It follows
// exp64 step for step: k = round(x·log2e) (VCVTPD2DQ rounds to nearest
// even, as CVTSD2SL does), both reductions fused, r/16, the fused Horner
// chain, three unfused squarings and a fused last one, then the product
// with 2**k built from k's bits. Clobbers Y1-Y3.
#define EXP4 \
	VMULPD       log2e<>(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD ln2u<>(SB), Y1, Y0; \
	VFNMADD231PD ln2l<>(SB), Y1, Y0; \
	VMULPD       sixteenth<>(SB), Y0, Y0; \
	VMOVUPD      rfact8<>(SB), Y3; \
	VFMADD213PD  rfact7<>(SB), Y0, Y3; \
	VFMADD213PD  rfact6<>(SB), Y0, Y3; \
	VFMADD213PD  rfact5<>(SB), Y0, Y3; \
	VFMADD213PD  rfact4<>(SB), Y0, Y3; \
	VFMADD213PD  rfact3<>(SB), Y0, Y3; \
	VFMADD213PD  half<>(SB), Y0, Y3; \
	VFMADD213PD  one<>(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y3; \
	VFMADD213PD  one<>(SB), Y3, Y0; \
	VPMOVSXDQ    X2, Y1; \
	VPADDQ       expbias<>(SB), Y1, Y1; \
	VPSLLQ       $52, Y1, Y1; \
	VMULPD       Y1, Y0, Y0

// func expAVX2(dst, src []float64)
TEXT ·expAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ BX, BX

loop:
	LEAQ    4(BX), AX
	CMPQ    AX, CX
	JGT     done
	VMOVUPD (SI)(BX*8), Y0
	EXP4
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ    AX, BX
	JMP     loop

done:
	VZEROUPPER
	RET

// func sigmoidAVX2(dst, src []float32) int
//
// Per lane: 1/(1 + exp64(-x)), narrowed to float32.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ BX, BX

loop:
	LEAQ      4(BX), AX
	CMPQ      AX, CX
	JGT       done
	VCVTPS2PD (SI)(BX*4), Y0
	VANDPD    absmask<>(SB), Y0, Y4
	VCMPPD    $0x12, sigmoidmax<>(SB), Y4, Y4 // |x| <= 700, false for NaN
	VMOVMSKPD Y4, DX
	CMPL      DX, $0xF
	JNE       done
	VXORPD    signmask<>(SB), Y0, Y0
	EXP4
	VADDPD    one<>(SB), Y0, Y0
	VMOVUPD   one<>(SB), Y1
	VDIVPD    Y0, Y1, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS   X0, (DI)(BX*4)
	MOVQ      AX, BX
	JMP       loop

done:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, src []float32) int
//
// Per lane, tanh64's branches (|x| <= 44 rules out its ±1 branch), both
// computed and blended: 1 - 2/(exp64(2|x|) + 1) with x's sign where
// |x| >= 0.625; else x + x·s·P(s)/Q(s) with s = x², unfused in tanh64's
// order; and x itself where x == 0, which keeps tanh(-0) = -0.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ BX, BX

loop:
	LEAQ      4(BX), AX
	CMPQ      AX, CX
	JGT       done
	VCVTPS2PD (SI)(BX*4), Y5          // x
	VANDPD    absmask<>(SB), Y5, Y6   // z = |x|
	VCMPPD    $0x12, tanhmax<>(SB), Y6, Y4 // z <= 44, false for NaN
	VMOVMSKPD Y4, DX
	CMPL      DX, $0xF
	JNE       done

	VADDPD  Y6, Y6, Y0
	EXP4
	VADDPD  one<>(SB), Y0, Y0
	VMOVUPD two<>(SB), Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD one<>(SB), Y1
	VSUBPD  Y0, Y1, Y0
	VANDPD  signmask<>(SB), Y5, Y1
	VORPD   Y1, Y0, Y0 // large branch

	VMULPD Y5, Y5, Y7 // s
	VMULPD tanhp0<>(SB), Y7, Y8
	VADDPD tanhp1<>(SB), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD tanhp2<>(SB), Y8, Y8 // P(s)
	VADDPD tanhq0<>(SB), Y7, Y9
	VMULPD Y7, Y9, Y9
	VADDPD tanhq1<>(SB), Y9, Y9
	VMULPD Y7, Y9, Y9
	VADDPD tanhq2<>(SB), Y9, Y9 // Q(s)
	VMULPD Y7, Y5, Y10
	VMULPD Y8, Y10, Y10
	VDIVPD Y9, Y10, Y10
	VADDPD Y10, Y5, Y10 // small branch

	VCMPPD     $0x1D, tanhmid<>(SB), Y6, Y4 // z >= 0.625
	VBLENDVPD  Y4, Y0, Y10, Y10
	VXORPD     Y11, Y11, Y11
	VCMPPD     $0x00, Y11, Y5, Y4 // x == 0
	VBLENDVPD  Y4, Y5, Y10, Y10
	VCVTPD2PSY Y10, X10
	VMOVUPS    X10, (DI)(BX*4)
	MOVQ       AX, BX
	JMP        loop

done:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET
