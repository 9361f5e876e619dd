#include "textflag.h"

// The vector bodies of the AMG V-cycle: the smoothing steps and the
// prolongation on four elements at once, one lane per element, and the A_c
// product and the restriction on a bucket's lane-major groups, one lane per
// row, with the same IEEE double-precision operations in the same order as
// their Go spellings. There is no fused multiply-add: every product rounds
// before its sum, as the Go spellings' explicit roundings make them do on
// every target.

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

// func amgProlongAVX2(z, ec []float64, agg []int32)
// Over the len(z)/4 whole groups of four: z += ec[agg], the four ec gathered
// at once. AX is the byte offset into z, 32 per group, BX into agg, 16, and
// CX the end of the groups.
TEXT ·amgProlongAVX2(SB), NOSPLIT, $0-72
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	SHRQ $2, CX
	SHLQ $5, CX
	MOVQ ec_base+24(FP), SI
	MOVQ agg_base+48(FP), R8
	XORQ AX, AX
	XORQ BX, BX
	JMP  prolongtest
	PCALIGN $64

prolongloop:
	VMOVDQU    (R8)(BX*1), X1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERDPD Y2, (SI)(X1*8), Y0
	VADDPD     (DI)(AX*1), Y0, Y0
	VMOVUPD    Y0, (DI)(AX*1)
	ADDQ       $32, AX
	ADDQ       $16, BX

prolongtest:
	CMPQ AX, CX
	JLT  prolongloop
	VZEROUPPER
	RET

// STORE4 writes the four lanes of Y0 to dst[id], DI the base of dst and R11
// the group's four ids, lane 0 first: a pad lane repeats lane 0's id and
// value, so its store changes nothing.
#define STORE4 \
	MOVLQSX      (R11), AX; \
	VMOVSD       X0, (DI)(AX*8); \
	MOVLQSX      4(R11), AX; \
	VMOVHPD      X0, (DI)(AX*8); \
	VEXTRACTF128 $1, Y0, X0; \
	MOVLQSX      8(R11), AX; \
	VMOVSD       X0, (DI)(AX*8); \
	MOVLQSX      12(R11), AX; \
	VMOVHPD      X0, (DI)(AX*8)

// func coarseApplyAVX2(w, z []float64, idx [][4]int32, val [][4]float64, k int)
// Per group of the bucket (1+k entries of idx and of val): diag·z[id] in
// each lane, then val·z[col] added for each of the k entries in turn, every
// product rounded before its add, and the four sums stored to w[id]. R8 and
// R9 walk idx and val, R10 is the end of a group's entries and CX of idx.
TEXT ·coarseApplyAVX2(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ z_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), CX
	MOVQ val_base+72(FP), R9
	MOVQ k+96(FP), DX
	SHLQ $4, CX
	ADDQ R8, CX
	SHLQ $4, DX
	JMP  applynext
	PCALIGN $64

applygroup:
	MOVQ       R8, R11
	VMOVDQU    (R8), X1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERDPD Y2, (SI)(X1*8), Y0
	VMULPD     (R9), Y0, Y0
	ADDQ       $16, R8
	ADDQ       $32, R9
	LEAQ       (R8)(DX*1), R10
	JMP        applytest
	PCALIGN    $64

applyterm:
	VMOVDQU    (R8), X3
	VPCMPEQD   Y4, Y4, Y4
	VGATHERDPD Y4, (SI)(X3*8), Y5
	VMULPD     (R9), Y5, Y5
	VADDPD     Y5, Y0, Y0
	ADDQ       $16, R8
	ADDQ       $32, R9

applytest:
	CMPQ R8, R10
	JLT  applyterm
	STORE4

applynext:
	CMPQ R8, CX
	JLT  applygroup
	VZEROUPPER
	RET

// func restrictAVX2(out, r, w []float64, idx [][4]int32, k int)
// Per group of the bucket (1+k entries of idx): from +0 in each lane,
// r[c] − w[c] added for each of the k members in turn, both operands
// gathered, and the four sums stored to out[id]. R8 walks idx, R10 is the
// end of a group's entries and CX of idx.
TEXT ·restrictAVX2(SB), NOSPLIT, $0-104
	MOVQ out_base+0(FP), DI
	MOVQ r_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ idx_base+72(FP), R8
	MOVQ idx_len+80(FP), CX
	MOVQ k+96(FP), BX
	SHLQ $4, CX
	ADDQ R8, CX
	SHLQ $4, BX
	JMP  restrictnext
	PCALIGN $64

restrictgroup:
	MOVQ   R8, R11
	ADDQ   $16, R8
	LEAQ   (R8)(BX*1), R10
	VXORPD Y0, Y0, Y0
	JMP    restricttest
	PCALIGN $64

restrictterm:
	VMOVDQU    (R8), X3
	VPCMPEQD   Y4, Y4, Y4
	VGATHERDPD Y4, (SI)(X3*8), Y5
	VPCMPEQD   Y4, Y4, Y4
	VGATHERDPD Y4, (DX)(X3*8), Y6
	VSUBPD     Y6, Y5, Y5
	VADDPD     Y5, Y0, Y0
	ADDQ       $16, R8

restricttest:
	CMPQ R8, R10
	JLT  restrictterm
	STORE4

restrictnext:
	CMPQ R8, CX
	JLT  restrictgroup
	VZEROUPPER
	RET
