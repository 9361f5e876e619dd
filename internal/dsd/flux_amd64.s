#include "textflag.h"

// The face kernel's vector body: fluxElem on 8 float32 lanes per step, with
// the same IEEE single-precision operations in the same order. There is no
// fused multiply-add (every product rounds before its sum, as the explicit
// float32 conversions in fluxElem demand), and the upwind branch is a
// greater-than compare and a blend, so NaN and ±0 choose as Go's
// `if dphi > 0` does. It takes n ≥ 8 and pointers to the first element of
// columns n long. It runs whole 8-lane steps from the start, and the last
// step at n − 8, so when n is not a multiple of 8 it overlaps the one
// before: SI walks the byte offsets 0, 32, … and is clamped to CX, the last
// step's offset, where the loop ends. The loop head is 64-byte aligned
// (PCALIGN), so its placement does not depend on the code linked before it.

DATA half<>+0(SB)/8, $0x3f0000003f000000 // 0.5 in each of 8 lanes
DATA half<>+8(SB)/8, $0x3f0000003f000000
DATA half<>+16(SB)/8, $0x3f0000003f000000
DATA half<>+24(SB)/8, $0x3f0000003f000000
GLOBL half<>(SB), RODATA|NOPTR, $32

DATA signbit<>+0(SB)/4, $0x80000000
GLOBL signbit<>(SB), RODATA|NOPTR, $4

// CONSTS broadcasts the FluxConsts at AX: Y8 AHat, Y9 CHat, Y10 NegC,
// Y11 InvMu; Y13 the sign bit, Y14 zero.
#define CONSTS \
	VBROADCASTSS 0(AX), Y8; \
	VBROADCASTSS 4(AX), Y9; \
	VBROADCASTSS 8(AX), Y10; \
	VBROADCASTSS 12(AX), Y11; \
	VBROADCASTSS signbit<>(SB), Y13; \
	VXORPS       Y14, Y14, Y14

// OWN loads the own columns' 8 lanes at byte offset SI: pK (R9) into Y1,
// rK = pK·AHat into Y3 and gzK (R10) into Y12.
#define OWN \
	VMOVUPS (R9)(SI*1), Y1; \
	VMULPS  Y8, Y1, Y3; \
	VMOVUPS (R10)(SI*1), Y12

// FACE computes one face's 8 fluxes at byte offset SI into Y0 from OWN's
// registers and the face's tr (R8), pL (R11) and gzL (R12) columns, fluxElem's
// operations one for one:
//	rL = pl·AHat; avg = 0.5·(rK + rL) + CHat
//	dphi = (pl − pk) − −(avg·(gl − gk))
//	rL = dphi > 0 ? rK : rL (VCMPPS GT_OQ is false on NaN, like Go's >)
//	f = (tr·dphi)·((rL − NegC)·InvMu)
// It clobbers Y2 and Y4–Y7 and leaves Y1, Y3 and Y12 for the next face.
#define FACE \
	VMOVUPS   (R11)(SI*1), Y2; \
	VMULPS    Y8, Y2, Y4; \
	VADDPS    Y4, Y3, Y5; \
	VMULPS    half<>(SB), Y5, Y5; \
	VADDPS    Y9, Y5, Y5; \
	VSUBPS    Y1, Y2, Y6; \
	VMOVUPS   (R12)(SI*1), Y7; \
	VSUBPS    Y12, Y7, Y7; \
	VMULPS    Y7, Y5, Y7; \
	VXORPS    Y13, Y7, Y7; \
	VSUBPS    Y7, Y6, Y6; \
	VCMPPS    $0x1e, Y14, Y6, Y7; \
	VBLENDVPS Y7, Y3, Y4, Y4; \
	VSUBPS    Y10, Y4, Y4; \
	VMULPS    Y11, Y4, Y4; \
	VMULPS    (R8)(SI*1), Y6, Y6; \
	VMULPS    Y4, Y6, Y0

// func fluxCellAVX2(res, pK, gzK *float32, faces *cellFaces, nf, n int, c *FluxConsts)
// Per step OWN runs once and the nf faces' fluxes are summed from +0 in Y15,
// in face order; a face's tr, pL and gzL pointers are at 0, 8 and 16 bytes
// of its 24-byte cellFaces entry.
TEXT ·fluxCellAVX2(SB), NOSPLIT, $0-56
	MOVQ res+0(FP), DI
	MOVQ pK+8(FP), R9
	MOVQ gzK+16(FP), R10
	MOVQ faces+24(FP), R13
	MOVQ n+40(FP), CX
	SHLQ $2, CX
	SUBQ $32, CX
	MOVQ c+48(FP), AX
	CONSTS
	MOVQ nf+32(FP), AX
	XORQ SI, SI
	PCALIGN $64

step:
	OWN
	VXORPS Y15, Y15, Y15
	MOVQ   R13, BX
	MOVQ   AX, DX
	TESTQ  DX, DX
	JZ     sum
face:
	MOVQ   0(BX), R8
	MOVQ   8(BX), R11
	MOVQ   16(BX), R12
	FACE
	VADDPS Y0, Y15, Y15
	ADDQ   $24, BX
	DECQ   DX
	JNZ    face
sum:
	VMOVUPS Y15, (DI)(SI*1)
	CMPQ    SI, CX
	JGE     done
	ADDQ    $32, SI
	CMPQ    SI, CX
	CMOVQGT CX, SI
	JMP     step

done:
	VZEROUPPER
	RET
