#include "textflag.h"

// The face kernel's vector body: fluxElem on 8 float32 lanes per step, with
// the same IEEE single-precision operations in the same order. There is no
// fused multiply-add (every product rounds before its sum, as the explicit
// float32 conversions in fluxElem demand), and the upwind branch is a
// greater-than compare and a blend, so NaN and ±0 choose as Go's
// `if dphi > 0` does. Both entry points take n, a positive multiple of 8,
// and pointers to the first element of equal-length columns.

DATA half<>+0(SB)/4, $0x3f000000 // 0.5
GLOBL half<>(SB), RODATA|NOPTR, $4

DATA signbit<>+0(SB)/4, $0x80000000
GLOBL signbit<>(SB), RODATA|NOPTR, $4

// FLUX computes 8 fluxes at byte offset SI into Y0, fluxElem's operations
// one for one:
//	rK = pk·AHat; rL = pl·AHat; avg = 0.5·(rK + rL) + CHat
//	dphi = (pl − pk) − −(avg·(gl − gk))
//	rL = dphi > 0 ? rK : rL (VCMPPS GT_OQ is false on NaN, like Go's >)
//	f = (tr·dphi)·((rL − NegC)·InvMu)
// Registers: Y8 AHat, Y9 CHat, Y10 NegC, Y11 InvMu, Y12 0.5, Y13 the sign
// bit, Y14 zero; R8 tr, R9 pK, R10 gzK, R11 pL, R12 gzL.
#define FLUX \
	VMOVUPS   (R9)(SI*1), Y1; \
	VMOVUPS   (R11)(SI*1), Y2; \
	VMULPS    Y8, Y1, Y3; \
	VMULPS    Y8, Y2, Y4; \
	VADDPS    Y4, Y3, Y5; \
	VMULPS    Y12, Y5, Y5; \
	VADDPS    Y9, Y5, Y5; \
	VSUBPS    Y1, Y2, Y6; \
	VMOVUPS   (R12)(SI*1), Y7; \
	VSUBPS    (R10)(SI*1), Y7, Y7; \
	VMULPS    Y7, Y5, Y7; \
	VXORPS    Y13, Y7, Y7; \
	VSUBPS    Y7, Y6, Y6; \
	VCMPPS    $0x1e, Y14, Y6, Y7; \
	VBLENDVPS Y7, Y3, Y4, Y4; \
	VSUBPS    Y10, Y4, Y4; \
	VMULPS    Y11, Y4, Y4; \
	VMULPS    (R8)(SI*1), Y6, Y6; \
	VMULPS    Y4, Y6, Y0

// SETUP loads the column pointers, the byte length into CX and the
// constants, and clears SI.
#define SETUP \
	MOVQ         tr+8(FP), R8; \
	MOVQ         pK+16(FP), R9; \
	MOVQ         gzK+24(FP), R10; \
	MOVQ         pL+32(FP), R11; \
	MOVQ         gzL+40(FP), R12; \
	MOVQ         n+48(FP), CX; \
	SHLQ         $2, CX; \
	MOVQ         c+56(FP), AX; \
	VBROADCASTSS 0(AX), Y8; \
	VBROADCASTSS 4(AX), Y9; \
	VBROADCASTSS 8(AX), Y10; \
	VBROADCASTSS 12(AX), Y11; \
	VBROADCASTSS half<>(SB), Y12; \
	VBROADCASTSS signbit<>(SB), Y13; \
	VXORPS       Y14, Y14, Y14; \
	XORQ         SI, SI

// func fluxFaceAVX2(f, tr, pK, gzK, pL, gzL *float32, n int, c *FluxConsts)
TEXT ·fluxFaceAVX2(SB), NOSPLIT, $0-64
	MOVQ f+0(FP), DI
	SETUP

store:
	FLUX
	VMOVUPS Y0, (DI)(SI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     store
	VZEROUPPER
	RET

// func fluxFaceAccAVX2(res, tr, pK, gzK, pL, gzL *float32, n int, c *FluxConsts)
TEXT ·fluxFaceAccAVX2(SB), NOSPLIT, $0-64
	MOVQ res+0(FP), DI
	SETUP

acc:
	FLUX
	VADDPS  (DI)(SI*1), Y0, Y0 // res + f
	VMOVUPS Y0, (DI)(SI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     acc
	VZEROUPPER
	RET
