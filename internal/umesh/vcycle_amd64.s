#include "textflag.h"

// The vector bodies of the AMG V-cycle's smoothing steps: amgPre's and
// amgPost's Go loops on four elements at once, one lane per element, with the
// same IEEE double-precision operations in the same order. There is no fused
// multiply-add: every product rounds before its sum, as the Go spellings'
// explicit roundings make them do on every target.

// func amgPreAVX2(z, inv, r []float64, omega float64)
// Over the len(z)/4 whole groups of four: z = ω·(inv·r). SI is the byte
// offset into the streams, 32 per group, and CX its end.
TEXT ·amgPreAVX2(SB), NOSPLIT, $0-80
	MOVQ         z_base+0(FP), R8
	MOVQ         z_len+8(FP), CX
	SHRQ         $2, CX
	SHLQ         $5, CX
	MOVQ         inv_base+24(FP), R9
	MOVQ         r_base+48(FP), R10
	VBROADCASTSD omega+72(FP), Y15
	XORQ         SI, SI
	TESTQ        CX, CX
	JZ           predone
	PCALIGN      $64

preloop:
	VMOVUPD (R9)(SI*1), Y0
	VMULPD  (R10)(SI*1), Y0, Y0
	VMULPD  Y0, Y15, Y0
	VMOVUPD Y0, (R8)(SI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     preloop
	VZEROUPPER

predone:
	RET

// func amgPostAVX2(z, inv, r, w []float64, omega float64)
// Over the len(z)/4 whole groups of four: z += ω·(inv·(r − w)).
TEXT ·amgPostAVX2(SB), NOSPLIT, $0-104
	MOVQ         z_base+0(FP), R8
	MOVQ         z_len+8(FP), CX
	SHRQ         $2, CX
	SHLQ         $5, CX
	MOVQ         inv_base+24(FP), R9
	MOVQ         r_base+48(FP), R10
	MOVQ         w_base+72(FP), R11
	VBROADCASTSD omega+96(FP), Y15
	XORQ         SI, SI
	TESTQ        CX, CX
	JZ           postdone
	PCALIGN      $64

postloop:
	VMOVUPD (R10)(SI*1), Y0
	VSUBPD  (R11)(SI*1), Y0, Y0
	VMULPD  (R9)(SI*1), Y0, Y0
	VMULPD  Y0, Y15, Y0
	VADDPD  (R8)(SI*1), Y0, Y0
	VMOVUPD Y0, (R8)(SI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     postloop
	VZEROUPPER

postdone:
	RET
