#include "textflag.h"

// The row store's vector body: quadRows on a whole reduction block, one lane
// per row of a quad, with the same IEEE double-precision operations in the
// same order. There is no fused multiply-add: every product rounds before
// its sum, as the Go spelling's do on amd64.

// quadHead is 20 bytes (deg at 0, width at 16), quadSlot 48 (t at 0, li at
// 32).

// FACE gathers the four neighbor values x[li[0..3]] of a slot into Y and
// forms the slot's fluxes t·(x − xc), with xc in Y0; T and LI are the byte
// offsets of the slot's t and li from BX. A pad lane reads
// x[0] and gets weight 0: the caller replaces its product. The gather
// clears its mask, so Y15 is reset to all ones first.
#define FACE(T, LI, Y) \
	VPCMPEQD   Y15, Y15, Y15; \
	VMOVDQU    LI(BX), X14; \
	VGATHERDPD Y15, (R8)(X14*8), Y; \
	VSUBPD     Y0, Y, Y; \
	VMULPD     T(BX), Y, Y

// PAD makes Y's lanes whose row has no face k (degree ≤ k, the count k in
// Y11, the degrees in Y9) exactly −0 (Y13), the additive identity, whatever
// their product was — a zero weight would turn an infinite or NaN x into NaN
// — and counts k up (Y6 is all ones, −1).
#define PAD(Y) \
	VPCMPGTQ  Y11, Y9, Y15; \
	VBLENDVPD Y15, Y, Y13, Y; \
	VPSUBQ    Y6, Y11, Y11

// DOT adds the four products in Y6 to acc (X7) one scalar add at a time, in
// row order.
#define DOT \
	VADDSD       X6, X7, X7; \
	VUNPCKHPD    X6, X6, X14; \
	VADDSD       X14, X7, X7; \
	VEXTRACTF128 $1, Y6, X6; \
	VADDSD       X6, X7, X7; \
	VUNPCKHPD    X6, X6, X14; \
	VADDSD       X14, X7, X7

// func quadRowsAVX2(heads []quadHead, slots []quadSlot, x, xc, accum, d, w []float64) float64
// Per quad: a pure one's four faces and (f0+f1)+(f2+f3); a mixed one's
// slots summed left to right from +0 per lane, pads as −0, with the
// pairwise sum of its first four slots taken in the lanes of degree 4; then
// d = accum·xc − flux and, with w, the four products w·d into acc. SI is the
// byte offset into the row streams, 32 per quad, and CX the end of the whole
// quads; a last quad of R13 < 4 rows loads and stores under the lane mask
// Y8. Its lanes past the block's end load 0 and have no face, so they add
// +0·(0·0 − +0) = +0 to acc, which leaves it as it is: acc starts at +0, and
// a sum rounded to nearest is −0 only when both addends are.
TEXT ·quadRowsAVX2(SB), NOSPLIT, $0-176
	MOVQ         heads_base+0(FP), DI
	MOVQ         slots_base+24(FP), BX
	MOVQ         x_base+48(FP), R8
	MOVQ         xc_base+72(FP), R9
	MOVQ         xc_len+80(FP), CX
	MOVQ         accum_base+96(FP), R10
	MOVQ         d_base+120(FP), R11
	MOVQ         w_base+144(FP), R12
	MOVQ         CX, R13
	ANDQ         $3, R13
	ANDQ         $-4, CX
	SHLQ         $3, CX
	VXORPD       X7, X7, X7
	VPCMPEQQ     Y12, Y12, Y12 // Y13 = −0 and Y12 = 4 in every lane
	VPSLLQ       $63, Y12, Y13
	VPSRLQ       $63, Y12, Y12
	VPSLLQ       $2, Y12, Y12
	XORQ         SI, SI
	JMP          test
	PCALIGN      $64

quad:
	VMOVUPD (R9)(SI*1), Y0

flux:
	VPMOVZXDQ (DI), Y9
	VPCMPEQQ  Y12, Y9, Y14
	VMOVMSKPD Y14, AX
	CMPQ      AX, $15
	JNE       mixed
	FACE(0, 32, Y1)
	FACE(48, 80, Y2)
	FACE(96, 128, Y3)
	FACE(144, 176, Y4)
	ADDQ      $192, BX
	VADDPD    Y2, Y1, Y1
	VADDPD    Y4, Y3, Y3
	VADDPD    Y3, Y1, Y1
	JMP       row

mixed:
	MOVL     16(DI), AX
	VPCMPEQQ Y6, Y6, Y6
	VPXOR    Y11, Y11, Y11
	VXORPD   Y10, Y10, Y10
	FACE(0, 32, Y1)
	PAD(Y1)
	VADDPD   Y1, Y10, Y10
	FACE(48, 80, Y2)
	PAD(Y2)
	VADDPD   Y2, Y10, Y10
	FACE(96, 128, Y3)
	PAD(Y3)
	VADDPD   Y3, Y10, Y10
	FACE(144, 176, Y4)
	PAD(Y4)
	VADDPD   Y4, Y10, Y10
	ADDQ     $192, BX
	VADDPD   Y2, Y1, Y1
	VADDPD   Y4, Y3, Y3
	VADDPD   Y3, Y1, Y1
	SUBQ     $4, AX
	JZ       blend

wide:
	FACE(0, 32, Y2)
	PAD(Y2)
	VADDPD Y2, Y10, Y10
	ADDQ   $48, BX
	DECQ   AX
	JNZ    wide

blend:
	VPCMPEQQ  Y12, Y9, Y14
	VBLENDVPD Y14, Y1, Y10, Y1

row:
	ADDQ    $20, DI
	CMPQ    SI, CX
	JEQ     last
	VMULPD  (R10)(SI*1), Y0, Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (R11)(SI*1)
	TESTQ   R12, R12
	JZ      next
	VMULPD  (R12)(SI*1), Y5, Y6
	DOT

next:
	ADDQ $32, SI

test:
	CMPQ       SI, CX
	JLT        quad
	TESTQ      R13, R13
	JZ         done
	LEAQ       quadMask<>+24(SB), AX
	NEGQ       R13
	VMOVDQU    (AX)(R13*8), Y8
	VMASKMOVPD (R9)(SI*1), Y8, Y0
	JMP        flux

last:
	VMASKMOVPD (R10)(SI*1), Y8, Y5
	VMULPD     Y0, Y5, Y5
	VSUBPD     Y1, Y5, Y5
	VMASKMOVPD Y5, Y8, (R11)(SI*1)
	TESTQ      R12, R12
	JZ         done
	VMASKMOVPD (R12)(SI*1), Y8, Y6
	VMULPD     Y5, Y6, Y6
	DOT

done:
	VZEROUPPER
	VMOVSD X7, ret+168(FP)
	RET

// quadMask+24−8r holds r lanes of all ones and then zeros, r = 1, 2, 3.
DATA quadMask<>+0(SB)/8, $-1
DATA quadMask<>+8(SB)/8, $-1
DATA quadMask<>+16(SB)/8, $-1
GLOBL quadMask<>(SB), RODATA|NOPTR, $48
