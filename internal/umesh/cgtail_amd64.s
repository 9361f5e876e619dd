#include "textflag.h"

// The vector bodies of the CG tail's shard kernels: shardCGStepPre's and
// shardXpby's Go loops on four elements at once, one lane per element, with
// the same IEEE double-precision operations in the same order. There is no
// fused multiply-add: every product rounds before its sum, as the Go
// spellings' do on amd64.

// ADDLANES adds Y's four lanes (X is its low half) to the scalar sum S one
// at a time, lane 0 first, through the scratch T: the Go loop's order.
#define ADDLANES(Y, X, S, T) \
	VADDSD       X, S, S; \
	VUNPCKHPD    X, X, T; \
	VADDSD       T, S, S; \
	VEXTRACTF128 $1, Y, X; \
	VADDSD       X, S, S; \
	VUNPCKHPD    X, X, T; \
	VADDSD       T, S, S

// func cgTailAVX2(x, p, r, ap, z, inv []float64, alpha float64) (rr, rz float64)
// Over the len(x)/4 whole groups of four: x += α·p; r −= α·ap; z = inv·r,
// with ⟨r, r⟩ and ⟨r, z⟩ summed from zero in element order. SI is the byte
// offset into the streams, 32 per group, and CX its end.
TEXT ·cgTailAVX2(SB), NOSPLIT, $0-168
	MOVQ         x_base+0(FP), R8
	MOVQ         x_len+8(FP), CX
	SHRQ         $2, CX
	SHLQ         $5, CX
	MOVQ         p_base+24(FP), R9
	MOVQ         r_base+48(FP), R10
	MOVQ         ap_base+72(FP), R11
	MOVQ         z_base+96(FP), R12
	MOVQ         inv_base+120(FP), R13
	VBROADCASTSD alpha+144(FP), Y15
	VXORPD       X6, X6, X6
	VXORPD       X7, X7, X7
	XORQ         SI, SI
	TESTQ        CX, CX
	JZ           cgdone
	PCALIGN      $64

cgloop:
	VMULPD  (R9)(SI*1), Y15, Y0
	VADDPD  (R8)(SI*1), Y0, Y0
	VMOVUPD Y0, (R8)(SI*1)
	VMULPD  (R11)(SI*1), Y15, Y1
	VMOVUPD (R10)(SI*1), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (R10)(SI*1)
	VMULPD  Y2, Y2, Y3
	VMULPD  (R13)(SI*1), Y2, Y4
	VMOVUPD Y4, (R12)(SI*1)
	VMULPD  Y4, Y2, Y5
	ADDLANES(Y3, X3, X6, X8)
	ADDLANES(Y5, X5, X7, X9)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     cgloop
	VZEROUPPER

cgdone:
	VMOVSD X6, rr+152(FP)
	VMOVSD X7, rz+160(FP)
	RET

// func xpbyAVX2(y, x []float64, beta float64)
// Over the len(y)/4 whole groups of four: y = x + β·y.
TEXT ·xpbyAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), R8
	MOVQ         y_len+8(FP), CX
	SHRQ         $2, CX
	SHLQ         $5, CX
	MOVQ         x_base+24(FP), R9
	VBROADCASTSD beta+48(FP), Y15
	XORQ         SI, SI
	TESTQ        CX, CX
	JZ           xpbydone
	PCALIGN      $64

xpbyloop:
	VMULPD  (R8)(SI*1), Y15, Y0
	VADDPD  (R9)(SI*1), Y0, Y0
	VMOVUPD Y0, (R8)(SI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     xpbyloop
	VZEROUPPER

xpbydone:
	RET
