#include "textflag.h"

// Two float32 loops of a training step, eight lanes per instruction:
// Adam's update and the fused LSTM cell's backward. Each lane does the
// scalar loop's operations in its order, one VMULPS, VADDPS, VSUBPS,
// VDIVPS or VSQRTPS per operation and never a fused multiply-add, so it
// gets the scalar loop's float32 roundings.

DATA one32<>+0(SB)/4, $0x3f800000 // 1.0
GLOBL one32<>(SB), RODATA|NOPTR, $4

// func adamAVX2(w, g, m, v []float32, k *AdamCoeffs)
//
// For i below the last multiple of 8 in len(w), nn.Adam's update:
//
//	gi := min(max(g[i], -Clip), Clip)   (a NaN g[i] stays NaN)
//	m[i] = Beta1*m[i] + OneMinusBeta1*gi
//	v[i] = Beta2*v[i] + OneMinusBeta2*gi*gi
//	w[i] -= LR*(m[i]/BC1) / (sqrt(v[i]/BC2) + Eps)
//
// VMINPS and VMAXPS return their second source, here the gradient, when
// either operand is NaN. VSQRTPS is correctly rounded, as is the float64
// square root the scalar code narrows: 53 >= 2·24 + 2 makes the double
// rounding exact.
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	ANDQ         $-8, CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	MOVQ         k+96(FP), AX
	VBROADCASTSS 0(AX), Y8    // LR
	VBROADCASTSS 4(AX), Y9    // Beta1
	VBROADCASTSS 8(AX), Y10   // OneMinusBeta1
	VBROADCASTSS 12(AX), Y11  // Beta2
	VBROADCASTSS 16(AX), Y12  // OneMinusBeta2
	VBROADCASTSS 20(AX), Y13  // Eps
	VBROADCASTSS 24(AX), Y14  // Clip
	VBROADCASTSS 28(AX), Y6   // BC1
	VBROADCASTSS 32(AX), Y7   // BC2
	VPCMPEQD     Y15, Y15, Y15
	VPSLLD       $31, Y15, Y15
	VXORPS       Y14, Y15, Y15 // -Clip
	XORQ         BX, BX

loop:
	CMPQ    BX, CX
	JGE     done
	VMOVUPS (SI)(BX*4), Y0
	VMINPS  Y0, Y14, Y0
	VMAXPS  Y0, Y15, Y0        // gi
	VMULPS  (R8)(BX*4), Y9, Y1
	VMULPS  Y0, Y10, Y2
	VADDPS  Y2, Y1, Y1         // m
	VMOVUPS Y1, (R8)(BX*4)
	VMULPS  (R9)(BX*4), Y11, Y2
	VMULPS  Y0, Y12, Y3
	VMULPS  Y0, Y3, Y3
	VADDPS  Y3, Y2, Y2         // v
	VMOVUPS Y2, (R9)(BX*4)
	VDIVPS  Y6, Y1, Y1         // m/BC1
	VDIVPS  Y7, Y2, Y2         // v/BC2
	VSQRTPS Y2, Y2
	VADDPS  Y13, Y2, Y2
	VMULPS  Y1, Y8, Y1
	VDIVPS  Y2, Y1, Y1
	VMOVUPS (DI)(BX*4), Y3
	VSUBPS  Y1, Y3, Y3
	VMOVUPS Y3, (DI)(BX*4)
	ADDQ    $8, BX
	JMP     loop

done:
	VZEROUPPER
	RET

// func lstmCellBackAVX2(gg, cpg, acts, tc, cprev, dh, dc []float32)
//
// For j below the last multiple of 8 in hd = len(tc), one row of
// LSTMCell's backward, with acts and gg laid out as [i, f, g, o] blocks of
// hd:
//
//	oG := dh*tc;  tcG := dh*o;  cG := dc + tcG*(1 - tc*tc)
//	cpg[j] += cG*f                       (when len(cpg) > 0)
//	iG := cG*g;  gG := cG*i;  fG := cG*cprev
//	gg[i] += iG*i*(1-i);  gg[f] += fG*f*(1-f)
//	gg[g] += gG*(1-g*g);  gg[o] += oG*o*(1-o)
TEXT ·lstmCellBackAVX2(SB), NOSPLIT, $0-168
	MOVQ         gg_base+0(FP), R8
	MOVQ         cpg_base+24(FP), DI
	MOVQ         cpg_len+32(FP), R11
	MOVQ         acts_base+48(FP), AX
	MOVQ         tc_base+72(FP), BX
	MOVQ         tc_len+80(FP), R9
	MOVQ         cprev_base+96(FP), CX
	MOVQ         dh_base+120(FP), DX
	MOVQ         dc_base+144(FP), SI
	MOVQ         R9, R12
	SHRQ         $3, R12       // groups of 8
	SHLQ         $2, R9        // gate block stride in bytes
	LEAQ         (R9)(R9*2), R10
	VBROADCASTSS one32<>(SB), Y15

loop:
	TESTQ   R12, R12
	JZ      done
	VMOVUPS (AX), Y0           // i
	VMOVUPS (AX)(R9*1), Y1     // f
	VMOVUPS (AX)(R9*2), Y2     // g
	VMOVUPS (AX)(R10*1), Y3    // o
	VMOVUPS (BX), Y4           // tanh(c)
	VMOVUPS (DX), Y5           // dh
	VMULPS  Y4, Y5, Y6         // oG
	VMULPS  Y3, Y5, Y7         // tcG
	VMULPS  Y4, Y4, Y8
	VSUBPS  Y8, Y15, Y8
	VMULPS  Y8, Y7, Y8
	VADDPS  (SI), Y8, Y8       // cG
	TESTQ   R11, R11
	JZ      gates
	VMULPS  Y1, Y8, Y9
	VADDPS  (DI), Y9, Y9
	VMOVUPS Y9, (DI)
	ADDQ    $32, DI

gates:
	VMULPS  Y2, Y8, Y9         // iG
	VMULPS  Y0, Y8, Y10        // gG
	VMULPS  (CX), Y8, Y11      // fG
	VMULPS  Y0, Y9, Y9
	VSUBPS  Y0, Y15, Y12
	VMULPS  Y12, Y9, Y9
	VADDPS  (R8), Y9, Y9
	VMOVUPS Y9, (R8)
	VMULPS  Y1, Y11, Y11
	VSUBPS  Y1, Y15, Y12
	VMULPS  Y12, Y11, Y11
	VADDPS  (R8)(R9*1), Y11, Y11
	VMOVUPS Y11, (R8)(R9*1)
	VMULPS  Y2, Y2, Y12
	VSUBPS  Y12, Y15, Y12
	VMULPS  Y12, Y10, Y10
	VADDPS  (R8)(R9*2), Y10, Y10
	VMOVUPS Y10, (R8)(R9*2)
	VMULPS  Y3, Y6, Y6
	VSUBPS  Y3, Y15, Y12
	VMULPS  Y12, Y6, Y6
	VADDPS  (R8)(R10*1), Y6, Y6
	VMOVUPS Y6, (R8)(R10*1)
	ADDQ    $32, AX
	ADDQ    $32, R8
	ADDQ    $32, BX
	ADDQ    $32, CX
	ADDQ    $32, DX
	ADDQ    $32, SI
	DECQ    R12
	JMP     loop

done:
	VZEROUPPER
	RET
