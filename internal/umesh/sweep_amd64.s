#include "textflag.h"

// The packed rows' vector body: sweep's Go loop on the four rows of a
// quadBlock at once, one lane per row, with the same IEEE double-precision
// operations in the same order. There is no fused multiply-add: every
// product rounds before its sum, as the Go spelling's do on amd64.

// FACE gathers face k's four neighbor values x[li[k][0..3]] into Y and forms
// the face's fluxes t[k]·(x − xc), with xc in Y0; T and LI are the byte
// offsets of t[k] and li[k] in the block at BX. The gather clears its mask,
// so Y15 is reset to all ones first.
#define FACE(T, LI, Y) \
	VPCMPEQD   Y15, Y15, Y15; \
	VMOVDQU    LI(BX), X14; \
	VGATHERDPD Y15, (R8)(X14*8), Y; \
	VSUBPD     Y0, Y, Y; \
	VMULPD     T(BX), Y, Y

// func quadBlocksAVX2(q []quadBlock, x, xc, accum, d, w []float64, acc float64) float64
// Per block: the four faces, (f0+f1)+(f2+f3), d = accum·xc − sum; with w,
// the four products w·d in one multiply and their sum into acc (X7) one
// scalar add at a time, in row order. SI is the byte offset into the row
// streams, 32 per block, and CX its end; a run of under 4 rows has none.
TEXT ·quadBlocksAVX2(SB), NOSPLIT, $0-160
	MOVQ   q_base+0(FP), BX
	MOVQ   x_base+24(FP), R8
	MOVQ   xc_base+48(FP), R9
	MOVQ   xc_len+56(FP), CX
	SHRQ   $2, CX
	SHLQ   $5, CX
	MOVQ   accum_base+72(FP), R10
	MOVQ   d_base+96(FP), R11
	MOVQ   w_base+120(FP), R12
	VMOVSD acc+144(FP), X7
	XORQ   SI, SI
	TESTQ  CX, CX
	JZ     done
	PCALIGN $64

block:
	VMOVUPD (R9)(SI*1), Y0
	FACE(0, 128, Y1)
	FACE(32, 144, Y2)
	FACE(64, 160, Y3)
	FACE(96, 176, Y4)
	VADDPD  Y2, Y1, Y1
	VADDPD  Y4, Y3, Y3
	VADDPD  Y3, Y1, Y1
	VMULPD  (R10)(SI*1), Y0, Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (R11)(SI*1)
	TESTQ   R12, R12
	JZ      next
	VMULPD       (R12)(SI*1), Y5, Y6
	VADDSD       X6, X7, X7
	VUNPCKHPD    X6, X6, X8
	VADDSD       X8, X7, X7
	VEXTRACTF128 $1, Y6, X6
	VADDSD       X6, X7, X7
	VUNPCKHPD    X6, X6, X8
	VADDSD       X8, X7, X7

next:
	ADDQ $192, BX
	ADDQ $32, SI
	CMPQ SI, CX
	JLT  block
	VZEROUPPER

done:
	VMOVSD X7, ret+152(FP)
	RET
