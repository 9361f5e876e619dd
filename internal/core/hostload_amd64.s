#include "textflag.h"

// The tile loader's vector body: loadTile over a full tile of 8 PEs, 8
// planes per step. A step loads the 8 planes' lines of 8 float64, forms
// scale·src with VMULPD and narrows it once with VCVTPD2PS, as the Go
// expression float32(scale * line[k]) does (no fused multiply-add). Plane z
// goes to the low 128 bits of a register and plane z+4 to the high ones, so
// two in-lane 4×4 transposes (VUNPCKL/HPS, then VUNPCKL/HPD) leave each PE's
// 8 planes in one register, stored with one 32-byte write. It takes nz ≥ 8
// and runs the last step at plane nz − 8, so when nz is not a multiple of 8
// it overlaps the one before: the overlapped planes are read from the same
// source and stored twice with the same bits. SI walks the planes 0, 8, …
// and is clamped to R9, the last step's plane, where the loop ends. The loop
// head is 64-byte aligned (PCALIGN), so its placement does not depend on the
// code linked before it.

// ROWS narrows columns off…off+3 of the 8 planes at BX (planes z…z+3, DX
// bytes apart, R11 = 3·DX) and CX (planes z+4…z+7) into Y0–Y3: Yj holds
// plane z+j's 4 floats low and plane z+4+j's high. It clobbers Y4 and Y5.
#define ROWS(off) \
	VMULPD      off(BX), Y15, Y4; \
	VCVTPD2PSY  Y4, X0; \
	VMULPD      off(CX), Y15, Y5; \
	VCVTPD2PSY  Y5, X5; \
	VINSERTF128 $1, X5, Y0, Y0; \
	VMULPD      off(BX)(DX*1), Y15, Y4; \
	VCVTPD2PSY  Y4, X1; \
	VMULPD      off(CX)(DX*1), Y15, Y5; \
	VCVTPD2PSY  Y5, X5; \
	VINSERTF128 $1, X5, Y1, Y1; \
	VMULPD      off(BX)(DX*2), Y15, Y4; \
	VCVTPD2PSY  Y4, X2; \
	VMULPD      off(CX)(DX*2), Y15, Y5; \
	VCVTPD2PSY  Y5, X5; \
	VINSERTF128 $1, X5, Y2, Y2; \
	VMULPD      off(BX)(R11*1), Y15, Y4; \
	VCVTPD2PSY  Y4, X3; \
	VMULPD      off(CX)(R11*1), Y15, Y5; \
	VCVTPD2PSY  Y5, X5; \
	VINSERTF128 $1, X5, Y3, Y3

// STORE transposes ROWS' Y0–Y3 in each 128-bit lane and stores column k of
// the result, PE col+k's planes z…z+7, at plane SI of that PE's column (its
// data pointer at byte 24·(col+k) of the view array at DI). It clobbers
// Y4–Y7 and AX.
#define STORE(col) \
	VUNPCKLPS Y1, Y0, Y4; \
	VUNPCKHPS Y1, Y0, Y5; \
	VUNPCKLPS Y3, Y2, Y6; \
	VUNPCKHPS Y3, Y2, Y7; \
	VUNPCKLPD Y6, Y4, Y0; \
	VUNPCKHPD Y6, Y4, Y1; \
	VUNPCKLPD Y7, Y5, Y2; \
	VUNPCKHPD Y7, Y5, Y3; \
	MOVQ      (24*(col+0))(DI), AX; \
	VMOVUPS   Y0, (AX)(SI*4); \
	MOVQ      (24*(col+1))(DI), AX; \
	VMOVUPS   Y1, (AX)(SI*4); \
	MOVQ      (24*(col+2))(DI), AX; \
	VMOVUPS   Y2, (AX)(SI*4); \
	MOVQ      (24*(col+3))(DI), AX; \
	VMOVUPS   Y3, (AX)(SI*4)

// func loadTileAVX2(cols *[tileWidth][]float32, src *float64, plane, nz int, scale float64)
TEXT ·loadTileAVX2(SB), NOSPLIT, $0-40
	MOVQ         cols+0(FP), DI
	MOVQ         src+8(FP), R12
	MOVQ         plane+16(FP), DX
	SHLQ         $3, DX
	LEAQ         (DX)(DX*2), R11
	MOVQ         nz+24(FP), R9
	SUBQ         $8, R9
	VBROADCASTSD scale+32(FP), Y15
	XORQ         SI, SI
	PCALIGN      $64

step:
	MOVQ  SI, BX
	IMULQ DX, BX
	ADDQ  R12, BX
	LEAQ  (BX)(DX*4), CX
	ROWS(0)
	STORE(0)
	ROWS(32)
	STORE(4)
	CMPQ    SI, R9
	JGE     done
	ADDQ    $8, SI
	CMPQ    SI, R9
	CMOVQGT R9, SI
	JMP     step

done:
	VZEROUPPER
	RET
