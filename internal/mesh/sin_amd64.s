#include "textflag.h"

// The perturbation sine's vector body: sin32 of 4 float32 arguments per step,
// evaluated in float64 lanes. Each lane is either sin32's value or NaN, which
// tells the caller to recompute that lane with sin32; sin32 of a finite
// argument is never NaN, so the mark is unambiguous.
//
//	k = round(x·2/π)                    x·2/π + 1.5·2⁵² in one FMA: k's low
//	                                    bits land in the sum's mantissa
//	r = x − k·P1 − k·P2 − k·P3          Cody–Waite; P1 + P2 + P3 = π/2 to 2⁻¹⁵⁸
//	                                    and x − k·P1 is exact for |x| < 2²⁰
//	sin r = r + r·r²·S(r²)              the polynomials of Go's math.Sin
//	cos r = 1 − r²/2 + r⁴·C(r²)
//	y = (k odd ? cos r : sin r), negated when k mod 4 ≥ 2
//
// y is within 2⁻⁵⁰·|y| of sin x, and so is math.Sin(x). The lane is kept
// when y·(1 − 2⁻⁴⁰) and y·(1 + 2⁻⁴⁰) round to the same float32 — every
// value between them, both of those included, rounds to it too — and when
// 2⁻²⁰ ≤ |x| < 2²⁰, the range the reduction is exact over. Anything else
// (a value near a float32 rounding boundary, a tiny or huge argument, ±Inf,
// NaN) is marked.

#define CONST4(sym, bits) \
	DATA sym<>+0(SB)/8, bits; \
	DATA sym<>+8(SB)/8, bits; \
	DATA sym<>+16(SB)/8, bits; \
	DATA sym<>+24(SB)/8, bits; \
	GLOBL sym<>(SB), RODATA|NOPTR, $32

#define CONST4I(sym, bits) \
	DATA sym<>+0(SB)/4, bits; \
	DATA sym<>+4(SB)/4, bits; \
	DATA sym<>+8(SB)/4, bits; \
	DATA sym<>+12(SB)/4, bits; \
	GLOBL sym<>(SB), RODATA|NOPTR, $16

CONST4(twoOverPi, $0x3fe45f306dc9c883)
CONST4(magic, $0x4338000000000000) // 1.5·2⁵²
CONST4(pio2a, $0x3ff921fb54442d18) // P1
CONST4(pio2b, $0x3c91a62633145c07) // P2
CONST4(pio2c, $0xb91f1976b7ed8fbc) // P3
CONST4(sin0, $0x3de5d8fd1fd19ccd)
CONST4(sin1, $0xbe5ae5e5a9291f5d)
CONST4(sin2, $0x3ec71de3567d48a1)
CONST4(sin3, $0xbf2a01a019bfdf03)
CONST4(sin4, $0x3f8111111110f7d0)
CONST4(sin5, $0xbfc5555555555548)
CONST4(cos0, $0xbda8fa49a0861a9b)
CONST4(cos1, $0x3e21ee9d7b4e3f05)
CONST4(cos2, $0xbe927e4f7eac4bc6)
CONST4(cos3, $0x3efa01a019c844f5)
CONST4(cos4, $0xbf56c16c16c14f91)
CONST4(cos5, $0x3fa555555555554b)
CONST4(half, $0x3fe0000000000000)
CONST4(one, $0x3ff0000000000000)
CONST4(signbit, $0x8000000000000000)
CONST4(zivLo, $0x3fefffffffffe000) // 1 − 2⁻⁴⁰
CONST4(zivHi, $0x3ff0000000001000) // 1 + 2⁻⁴⁰
CONST4I(absMask, $0x7fffffff)
CONST4I(tinyBits, $0x357fffff) // largest float32 below 2⁻²⁰
CONST4I(hugeBits, $0x497fffff) // largest float32 below 2²⁰

// func sinAVX2(dst, x *float32, n int)
TEXT ·sinAVX2(SB), NOSPLIT, $0-24
	MOVQ      dst+0(FP), DI
	MOVQ      x+8(FP), SI
	MOVQ      n+16(FP), CX
	SHLQ      $2, CX
	XORQ      BX, BX
	VPCMPEQD  X15, X15, X15 // all ones: a NaN

loop:
	VMOVUPS   (SI)(BX*1), X0

	// X13 = 2⁻²⁰ ≤ |x| < 2²⁰, integer compares on the bits (false on NaN, ±Inf)
	VPAND     absMask<>(SB), X0, X14
	VPCMPGTD  tinyBits<>(SB), X14, X13
	VPCMPGTD  hugeBits<>(SB), X14, X14
	VPANDN    X13, X14, X13

	VCVTPS2PD X0, Y1

	// Y2 = 1.5·2⁵² + k, Y3 = k, Y1 = r
	VMOVAPD      magic<>(SB), Y2
	VFMADD231PD  twoOverPi<>(SB), Y1, Y2
	VSUBPD       magic<>(SB), Y2, Y3
	VFNMADD231PD pio2a<>(SB), Y3, Y1
	VFNMADD231PD pio2b<>(SB), Y3, Y1
	VFNMADD231PD pio2c<>(SB), Y3, Y1

	// Y4 = r², Y5 = S(r²), Y6 = C(r²)
	VMULPD      Y1, Y1, Y4
	VMOVAPD     sin0<>(SB), Y5
	VMOVAPD     cos0<>(SB), Y6
	VFMADD213PD sin1<>(SB), Y4, Y5
	VFMADD213PD cos1<>(SB), Y4, Y6
	VFMADD213PD sin2<>(SB), Y4, Y5
	VFMADD213PD cos2<>(SB), Y4, Y6
	VFMADD213PD sin3<>(SB), Y4, Y5
	VFMADD213PD cos3<>(SB), Y4, Y6
	VFMADD213PD sin4<>(SB), Y4, Y5
	VFMADD213PD cos4<>(SB), Y4, Y6
	VFMADD213PD sin5<>(SB), Y4, Y5
	VFMADD213PD cos5<>(SB), Y4, Y6

	// Y5 = sin r = r·r²·S + r
	VMULPD      Y4, Y1, Y7
	VFMADD213PD Y1, Y7, Y5

	// Y6 = cos r = r⁴·C + (1 − r²/2)
	VMOVAPD      one<>(SB), Y7
	VFNMADD231PD half<>(SB), Y4, Y7
	VMULPD       Y4, Y4, Y4
	VFMADD213PD  Y7, Y4, Y6

	// Y5 = y: cos where k is odd (bit 0 shifted into the sign), negated
	// where bit 1 of k is set
	VPSLLQ    $63, Y2, Y7
	VBLENDVPD Y7, Y6, Y5, Y5
	VPSLLQ    $62, Y2, Y7
	VANDPD    signbit<>(SB), Y7, Y7
	VXORPD    Y7, Y5, Y5

	// X13 &= float32(y·(1 − 2⁻⁴⁰)) == float32(y·(1 + 2⁻⁴⁰))
	VMULPD     zivLo<>(SB), Y5, Y6
	VMULPD     zivHi<>(SB), Y5, Y7
	VCVTPD2PSY Y6, X6
	VCVTPD2PSY Y7, X7
	VPCMPEQD   X6, X7, X7
	VPAND      X7, X13, X13

	// dst = X13 ? float32(y) : NaN
	VCVTPD2PSY Y5, X5
	VBLENDVPS  X13, X5, X15, X5
	VMOVUPS    X5, (DI)(BX*1)

	ADDQ $16, BX
	CMPQ BX, CX
	JLT  loop
	VZEROUPPER
	RET
