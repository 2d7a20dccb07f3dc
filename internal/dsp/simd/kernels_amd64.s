//go:build amd64

#include "textflag.h"

// AVX2 kernels. Rounding contract (see package doc): element-wise kernels
// perform the exact scalar IEEE-754 operation sequence per lane — complex
// products use separate VMULPD + VADDSUBPD (never FMA), so every lane
// rounds like the corresponding Go expression. Reduction kernels use the
// canonical even/odd-lane accumulation order that generic.go spells out;
// the sliding-window FIR gives each lane its own output, in scalar tap order;
// the wire codec converts each component once, as the scalar conversion does.

// Sign masks: flip the sign bit of selected 64-bit lanes.
DATA oddMask<>+0(SB)/8, $0x0000000000000000
DATA oddMask<>+8(SB)/8, $0x8000000000000000
DATA oddMask<>+16(SB)/8, $0x0000000000000000
DATA oddMask<>+24(SB)/8, $0x8000000000000000
GLOBL oddMask<>(SB), RODATA|NOPTR, $32

DATA evenMask<>+0(SB)/8, $0x8000000000000000
DATA evenMask<>+8(SB)/8, $0x0000000000000000
DATA evenMask<>+16(SB)/8, $0x8000000000000000
DATA evenMask<>+24(SB)/8, $0x0000000000000000
GLOBL evenMask<>(SB), RODATA|NOPTR, $32

DATA lane3Mask<>+0(SB)/8, $0x0000000000000000
DATA lane3Mask<>+8(SB)/8, $0x0000000000000000
DATA lane3Mask<>+16(SB)/8, $0x0000000000000000
DATA lane3Mask<>+24(SB)/8, $0x8000000000000000
GLOBL lane3Mask<>(SB), RODATA|NOPTR, $32

DATA lane2Mask<>+0(SB)/8, $0x0000000000000000
DATA lane2Mask<>+8(SB)/8, $0x0000000000000000
DATA lane2Mask<>+16(SB)/8, $0x8000000000000000
DATA lane2Mask<>+24(SB)/8, $0x0000000000000000
GLOBL lane2Mask<>(SB), RODATA|NOPTR, $32

// func windowIntoAVX2(dst, x *complex128, w *float64, n int)
// dst[i] = (re(x[i])·w[i], im(x[i])·w[i]).
TEXT ·windowIntoAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $1, DX
	JZ   witail

wiloop:
	VMOVUPD (SI), Y0
	VMOVUPD (R8), X1
	VPERMPD $0x50, Y1, Y1    // [w0 w0 w1 w1]
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $16, R8
	DECQ    DX
	JNZ     wiloop

witail:
	ANDQ $1, CX
	JZ   widone
	VMOVUPD  (SI), X0
	VMOVDDUP (R8), X1
	VMULPD   X1, X0, X0
	VMOVUPD  X0, (DI)

widone:
	VZEROUPPER
	RET

// func mag2AccumAVX2(dst *float64, x *complex128, n int)
// dst[i] += re² + im².
TEXT ·mag2AccumAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   mgtail

mgloop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMULPD  Y0, Y0, Y0
	VMULPD  Y1, Y1, Y1
	VHADDPD Y1, Y0, Y2       // [m0 m2 m1 m3]
	VPERMPD $0xD8, Y2, Y2    // [m0 m1 m2 m3]
	VMOVUPD (DI), Y3
	VADDPD  Y2, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $64, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     mgloop

mgtail:
	ANDQ $3, CX
	JZ   mgdone

mgtloop:
	VMOVUPD (SI), X0
	VMULPD  X0, X0, X0
	VHADDPD X0, X0, X0
	VMOVSD  (DI), X1
	VADDSD  X0, X1, X1
	VMOVSD  X1, (DI)
	ADDQ    $16, SI
	ADDQ    $8, DI
	DECQ    CX
	JNZ     mgtloop

mgdone:
	VZEROUPPER
	RET

// func modulateAVX2(out, chips *complex128, taps *float64, nchips, sps int)
// out[i*sps+k] = (re(c)·g[k], im(c)·g[k]).
TEXT ·modulateAVX2(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ chips+8(FP), SI
	MOVQ taps+16(FP), R8
	MOVQ nchips+24(FP), CX
	MOVQ sps+32(FP), R10
	MOVQ R10, R11
	SHRQ $1, R11             // pairs per chip
	MOVQ R10, R12
	ANDQ $1, R12             // odd tail flag

mochip:
	VBROADCASTF128 (SI), Y0  // [cr ci cr ci]
	MOVQ           R8, BX
	MOVQ           R11, DX
	TESTQ          DX, DX
	JZ             motail

moinner:
	VMOVUPD (BX), X1
	VPERMPD $0x50, Y1, Y1    // [g0 g0 g1 g1]
	VMULPD  Y1, Y0, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $16, BX
	ADDQ    $32, DI
	DECQ    DX
	JNZ     moinner

motail:
	TESTQ R12, R12
	JZ    monext
	VMOVDDUP (BX), X1
	VMULPD   X1, X0, X2
	VMOVUPD  X2, (DI)
	ADDQ     $16, DI

monext:
	ADDQ $16, SI
	DECQ CX
	JNZ  mochip
	VZEROUPPER
	RET

// func firRealAVX2(out, buf *complex128, h *float64, n, k int)
// out[i] = Σₜ h[t]·buf[i+k−1−t], vectorized across outputs: blocks of 8
// outputs in four accumulators, then pairs, then one. Each lane starts at
// +0 and adds h[t]·x in ascending t (VMULPD then VADDPD, never FMA), the
// scalar loop's order.
TEXT ·firRealAVX2(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ buf+8(FP), SI
	MOVQ h+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ k+32(FP), R9
	MOVQ R9, AX
	DECQ AX
	SHLQ $4, AX
	ADDQ AX, SI              // SI = &buf[i+k−1], newest sample of output i
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   fr2

fr8block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   R8, BX
	MOVQ   R9, R10

fr8tap:
	VBROADCASTSD (BX), Y8
	VMULPD       (AX), Y8, Y4
	VMULPD       32(AX), Y8, Y5
	VMULPD       64(AX), Y8, Y6
	VMULPD       96(AX), Y8, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	ADDQ         $8, BX
	SUBQ         $16, AX
	DECQ         R10
	JNZ          fr8tap
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	DECQ         DX
	JNZ          fr8block

fr2:
	ANDQ $7, CX
	MOVQ CX, DX
	SHRQ $1, DX
	JZ   fr1

fr2block:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   R8, BX
	MOVQ   R9, R10

fr2tap:
	VBROADCASTSD (BX), Y8
	VMULPD       (AX), Y8, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $8, BX
	SUBQ         $16, AX
	DECQ         R10
	JNZ          fr2tap
	VMOVUPD      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	DECQ         DX
	JNZ          fr2block

fr1:
	ANDQ $1, CX
	JZ   frdone
	VXORPD X0, X0, X0
	MOVQ   SI, AX
	MOVQ   R8, BX
	MOVQ   R9, R10

fr1tap:
	VMOVDDUP (BX), X8
	VMULPD   (AX), X8, X4
	VADDPD   X4, X0, X0
	ADDQ     $8, BX
	SUBQ     $16, AX
	DECQ     R10
	JNZ      fr1tap
	VMOVUPD  X0, (DI)

frdone:
	VZEROUPPER
	RET

// func demodulateAVX2(out, x *complex128, taps *float64, nchips, sps int, energy float64)
// Canonical even/odd-lane matched filter; out[i] = acc/energy.
TEXT ·demodulateAVX2(SB), NOSPLIT, $0-48
	MOVQ     out+0(FP), DI
	MOVQ     x+8(FP), SI
	MOVQ     taps+16(FP), R8
	MOVQ     nchips+24(FP), CX
	MOVQ     sps+32(FP), R10
	VMOVDDUP energy+40(FP), X9
	MOVQ     R10, R11
	SHRQ     $1, R11
	MOVQ     R10, R12
	ANDQ     $1, R12

dmchip:
	VXORPD Y4, Y4, Y4        // acc [eR eI oR oI]
	MOVQ   R8, BX
	MOVQ   R11, DX
	TESTQ  DX, DX
	JZ     dmtail

dminner:
	VMOVUPD (SI), Y0
	VMOVUPD (BX), X1
	VPERMPD $0x50, Y1, Y1
	VMULPD  Y1, Y0, Y2
	VADDPD  Y2, Y4, Y4
	ADDQ    $32, SI
	ADDQ    $16, BX
	DECQ    DX
	JNZ     dminner

dmtail:
	VEXTRACTF128 $1, Y4, X6  // [oR oI]
	TESTQ        R12, R12
	JZ           dmeven
	VMOVUPD  (SI), X0
	VMOVDDUP (BX), X1
	VMULPD   X1, X0, X2
	VADDPD   X2, X4, X5      // even lanes + tail product
	ADDQ     $16, SI
	JMP      dmcombine

dmeven:
	VMOVAPD X4, X5

dmcombine:
	VADDPD  X6, X5, X5       // (even[+tail]) + odd
	VDIVPD  X9, X5, X5
	VMOVUPD X5, (DI)
	ADDQ    $16, DI
	DECQ    CX
	JNZ     dmchip
	VZEROUPPER
	RET

// func allFiniteAVX2(x *complex128, n int) bool
// x·0 is NaN iff x is ±Inf or NaN; OR the unordered-compare masks.
TEXT ·allFiniteAVX2(SB), NOSPLIT, $0-17
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	VXORPD Y3, Y3, Y3        // zeros
	VXORPD Y2, Y2, Y2        // acc mask
	XORQ   DX, DX
	MOVQ   CX, AX
	SHRQ   $1, AX
	JZ     aftail

afloop:
	VMOVUPD (SI), Y0
	VMULPD  Y3, Y0, Y0
	VCMPPD  $3, Y0, Y0, Y1   // unordered → NaN lanes
	VORPD   Y1, Y2, Y2
	ADDQ    $32, SI
	DECQ    AX
	JNZ     afloop

aftail:
	ANDQ $1, CX
	JZ   afdone
	VMOVUPD   (SI), X0
	VMULPD    X3, X0, X0
	VCMPPD    $3, X0, X0, X1
	VMOVMSKPD X1, DX

afdone:
	VMOVMSKPD Y2, AX
	ORL       DX, AX
	TESTL     AX, AX
	SETEQ     ret+16(FP)
	VZEROUPPER
	RET

// func span2AVX2(x *complex128, n int)
// Pairs: x[i], x[i+1] = a+b, a−b (twiddle-free radix-2 stage).
TEXT ·span2AVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   sptail

sploop:
	VMOVUPD    (DI), Y0      // [a0 b0]
	VMOVUPD    32(DI), Y1    // [a1 b1]
	VPERM2F128 $0x20, Y1, Y0, Y2 // [a0 a1]
	VPERM2F128 $0x31, Y1, Y0, Y3 // [b0 b1]
	VADDPD     Y3, Y2, Y4
	VSUBPD     Y3, Y2, Y5
	VPERM2F128 $0x20, Y5, Y4, Y0 // [s0 d0]
	VPERM2F128 $0x31, Y5, Y4, Y1 // [s1 d1]
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       $64, DI
	DECQ       DX
	JNZ        sploop

sptail:
	ANDQ  $3, CX
	CMPQ  CX, $2
	JLT   spdone
	VMOVUPD (DI), X0
	VMOVUPD 16(DI), X1
	VADDPD  X1, X0, X2
	VSUBPD  X1, X0, X3
	VMOVUPD X2, (DI)
	VMOVUPD X3, 16(DI)

spdone:
	VZEROUPPER
	RET

// func unit4FwdAVX2(x *complex128, n int)
// First fused radix-4 pass, unit twiddles, forward −i rotation.
TEXT ·unit4FwdAVX2(SB), NOSPLIT, $0-16
	MOVQ    x+0(FP), DI
	MOVQ    n+8(FP), CX
	SHRQ    $2, CX
	JZ      u4fdone
	VMOVUPD lane3Mask<>(SB), Y7

u4floop:
	VMOVUPD    (DI), Y0      // [a0 a1]
	VMOVUPD    32(DI), Y1    // [a2 a3]
	VPERM2F128 $0x20, Y1, Y0, Y2 // [a0 a2]
	VPERM2F128 $0x31, Y1, Y0, Y3 // [a1 a3]
	VADDPD     Y3, Y2, Y4    // [u0 u2]
	VSUBPD     Y3, Y2, Y5    // [u1 u3]
	VPERMILPD  $0x6, Y5, Y5  // [u1 | u3i u3r]
	VXORPD     Y7, Y5, Y5    // [u1 | v3]  v3 = (u3i, −u3r)
	VPERM2F128 $0x20, Y5, Y4, Y2 // [u0 u1]
	VPERM2F128 $0x31, Y5, Y4, Y3 // [u2 v3]
	VADDPD     Y3, Y2, Y0
	VSUBPD     Y3, Y2, Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       $64, DI
	DECQ       CX
	JNZ        u4floop

u4fdone:
	VZEROUPPER
	RET

// func unit4InvAVX2(x *complex128, n int)
// Inverse +i rotation: v3 = (−u3i, u3r).
TEXT ·unit4InvAVX2(SB), NOSPLIT, $0-16
	MOVQ    x+0(FP), DI
	MOVQ    n+8(FP), CX
	SHRQ    $2, CX
	JZ      u4idone
	VMOVUPD lane2Mask<>(SB), Y7

u4iloop:
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VPERM2F128 $0x20, Y1, Y0, Y2
	VPERM2F128 $0x31, Y1, Y0, Y3
	VADDPD     Y3, Y2, Y4
	VSUBPD     Y3, Y2, Y5
	VPERMILPD  $0x6, Y5, Y5
	VXORPD     Y7, Y5, Y5
	VPERM2F128 $0x20, Y5, Y4, Y2
	VPERM2F128 $0x31, Y5, Y4, Y3
	VADDPD     Y3, Y2, Y0
	VSUBPD     Y3, Y2, Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       $64, DI
	DECQ       CX
	JNZ        u4iloop

u4idone:
	VZEROUPPER
	RET

// func radix4FwdAVX2(x *complex128, n, h int, twA, twB *complex128)
// One fused forward radix-4 pass over all blocks: quarters q0..q3 of
// length h, twiddles twA (span 2h) and twB (span 4h, lower half).
TEXT ·radix4FwdAVX2(SB), NOSPLIT, $0-40
	MOVQ    x+0(FP), DI
	MOVQ    n+8(FP), CX
	MOVQ    h+16(FP), R10
	MOVQ    twA+24(FP), R8
	MOVQ    twB+32(FP), R9
	MOVQ    R10, R12
	SHLQ    $4, R12          // h bytes
	MOVQ    CX, AX
	SHLQ    $4, AX
	ADDQ    DI, AX           // end of x
	VMOVUPD oddMask<>(SB), Y14

r4fblock:
	MOVQ DI, SI              // q0
	LEAQ (DI)(R12*1), R14    // q1
	LEAQ (DI)(R12*2), R15    // q2
	LEAQ (R14)(R12*2), R11   // q3
	XORQ BX, BX

r4fk:
	VMOVUPD   (R8)(BX*1), Y8  // wa
	VPERMILPD $0x0, Y8, Y9    // waR
	VPERMILPD $0xF, Y8, Y10   // waI
	VMOVUPD   (R9)(BX*1), Y11 // wb
	VPERMILPD $0x0, Y11, Y12  // wbR
	VPERMILPD $0xF, Y11, Y13  // wbI

	VMOVUPD   (R14)(BX*1), Y0 // q1[k]
	VPERMILPD $0x5, Y0, Y1
	VMULPD    Y9, Y0, Y2
	VMULPD    Y10, Y1, Y3
	VADDSUBPD Y3, Y2, Y2      // t1 = q1·wa
	VMOVUPD   (SI)(BX*1), Y4  // q0[k]
	VADDPD    Y2, Y4, Y5      // u0
	VSUBPD    Y2, Y4, Y6      // u1

	VMOVUPD   (R11)(BX*1), Y0 // q3[k]
	VPERMILPD $0x5, Y0, Y1
	VMULPD    Y9, Y0, Y2
	VMULPD    Y10, Y1, Y3
	VADDSUBPD Y3, Y2, Y2      // t3 = q3·wa
	VMOVUPD   (R15)(BX*1), Y4 // q2[k]
	VADDPD    Y2, Y4, Y7      // u2
	VSUBPD    Y2, Y4, Y4      // u3

	VPERMILPD $0x5, Y7, Y1
	VMULPD    Y12, Y7, Y2
	VMULPD    Y13, Y1, Y3
	VADDSUBPD Y3, Y2, Y2      // v2 = u2·wb

	VPERMILPD $0x5, Y4, Y1
	VMULPD    Y12, Y4, Y0
	VMULPD    Y13, Y1, Y3
	VADDSUBPD Y3, Y0, Y0      // v3 = u3·wb
	VPERMILPD $0x5, Y0, Y0
	VXORPD    Y14, Y0, Y0     // v3 = (im, −re)

	VADDPD  Y2, Y5, Y1        // u0+v2
	VMOVUPD Y1, (SI)(BX*1)
	VSUBPD  Y2, Y5, Y1        // u0−v2
	VMOVUPD Y1, (R15)(BX*1)
	VADDPD  Y0, Y6, Y1        // u1+v3
	VMOVUPD Y1, (R14)(BX*1)
	VSUBPD  Y0, Y6, Y1        // u1−v3
	VMOVUPD Y1, (R11)(BX*1)

	ADDQ $32, BX
	CMPQ BX, R12
	JLT  r4fk

	LEAQ (DI)(R12*4), DI
	CMPQ DI, AX
	JLT  r4fblock
	VZEROUPPER
	RET

// func radix4InvAVX2(x *complex128, n, h int, twA, twB *complex128)
// Inverse pass: conjugated twiddles, +i rotation.
TEXT ·radix4InvAVX2(SB), NOSPLIT, $0-40
	MOVQ    x+0(FP), DI
	MOVQ    n+8(FP), CX
	MOVQ    h+16(FP), R10
	MOVQ    twA+24(FP), R8
	MOVQ    twB+32(FP), R9
	MOVQ    R10, R12
	SHLQ    $4, R12
	MOVQ    CX, AX
	SHLQ    $4, AX
	ADDQ    DI, AX
	VMOVUPD oddMask<>(SB), Y14  // conjugation mask
	VMOVUPD evenMask<>(SB), Y15 // rotation mask

r4iblock:
	MOVQ DI, SI
	LEAQ (DI)(R12*1), R14
	LEAQ (DI)(R12*2), R15
	LEAQ (R14)(R12*2), R11
	XORQ BX, BX

r4ik:
	VMOVUPD   (R8)(BX*1), Y8
	VXORPD    Y14, Y8, Y8     // conj(wa)
	VPERMILPD $0x0, Y8, Y9
	VPERMILPD $0xF, Y8, Y10
	VMOVUPD   (R9)(BX*1), Y11
	VXORPD    Y14, Y11, Y11   // conj(wb)
	VPERMILPD $0x0, Y11, Y12
	VPERMILPD $0xF, Y11, Y13

	VMOVUPD   (R14)(BX*1), Y0
	VPERMILPD $0x5, Y0, Y1
	VMULPD    Y9, Y0, Y2
	VMULPD    Y10, Y1, Y3
	VADDSUBPD Y3, Y2, Y2
	VMOVUPD   (SI)(BX*1), Y4
	VADDPD    Y2, Y4, Y5
	VSUBPD    Y2, Y4, Y6

	VMOVUPD   (R11)(BX*1), Y0
	VPERMILPD $0x5, Y0, Y1
	VMULPD    Y9, Y0, Y2
	VMULPD    Y10, Y1, Y3
	VADDSUBPD Y3, Y2, Y2
	VMOVUPD   (R15)(BX*1), Y4
	VADDPD    Y2, Y4, Y7
	VSUBPD    Y2, Y4, Y4

	VPERMILPD $0x5, Y7, Y1
	VMULPD    Y12, Y7, Y2
	VMULPD    Y13, Y1, Y3
	VADDSUBPD Y3, Y2, Y2

	VPERMILPD $0x5, Y4, Y1
	VMULPD    Y12, Y4, Y0
	VMULPD    Y13, Y1, Y3
	VADDSUBPD Y3, Y0, Y0
	VPERMILPD $0x5, Y0, Y0
	VXORPD    Y15, Y0, Y0     // v3 = (−im, re)

	VADDPD  Y2, Y5, Y1
	VMOVUPD Y1, (SI)(BX*1)
	VSUBPD  Y2, Y5, Y1
	VMOVUPD Y1, (R15)(BX*1)
	VADDPD  Y0, Y6, Y1
	VMOVUPD Y1, (R14)(BX*1)
	VSUBPD  Y0, Y6, Y1
	VMOVUPD Y1, (R11)(BX*1)

	ADDQ $32, BX
	CMPQ BX, R12
	JLT  r4ik

	LEAQ (DI)(R12*4), DI
	CMPQ DI, AX
	JLT  r4iblock
	VZEROUPPER
	RET

// Box–Muller constants, one float64 bit pattern in each of four lanes:
// log_amd64.s's Frexp masks and coefficients, then math.Sincos's
// reduction constants and the _sin/_cos polynomial coefficients.
#define BCAST4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BCAST4(bmMant, 0x000FFFFFFFFFFFFF)
BCAST4(bmExp, 0x00000000000007FF)
BCAST4(bmSign, 0x8000000000000000)
BCAST4(bmHalf, 0x3FE0000000000000)   // 0.5
BCAST4(bmOne, 0x3FF0000000000000)    // 1
BCAST4(bmTwo, 0x4000000000000000)    // 2
BCAST4(bmMinus2, 0xC000000000000000) // −2
BCAST4(bmTwo52, 0x4330000000000000)  // 2⁵²
BCAST4(bmBias, 0x408FF00000000000)   // 1022
BCAST4(bmHSqrt2, 0x3FE6A09E667F3BCD)
BCAST4(bmLn2Hi, 0x3FE62E42FEE00000)
BCAST4(bmLn2Lo, 0x3DEA39EF35793C76)
BCAST4(bmL1, 0x3FE5555555555593)
BCAST4(bmL2, 0x3FD999999997FA04)
BCAST4(bmL3, 0x3FD2492494229359)
BCAST4(bmL4, 0x3FCC71C51D8E78AF)
BCAST4(bmL5, 0x3FC7466496CB03DE)
BCAST4(bmL6, 0x3FC39A09D078C69F)
BCAST4(bmL7, 0x3FC2F112DF3E5244)
BCAST4(bmTwoPi, 0x401921FB54442D18)
BCAST4(bmFourOverPi, 0x3FF45F306DC9C883)
BCAST4(bmPI4A, 0x3FE921FB40000000)
BCAST4(bmPI4B, 0x3E64442D00000000)
BCAST4(bmPI4C, 0x3CE8469898CC5170)
BCAST4(bmS0, 0x3DE5D8FD1FD19CCD)
BCAST4(bmS1, 0xBE5AE5E5A9291F5D)
BCAST4(bmS2, 0x3EC71DE3567D48A1)
BCAST4(bmS3, 0xBF2A01A019BFDF03)
BCAST4(bmS4, 0x3F8111111110F7D0)
BCAST4(bmS5, 0xBFC5555555555548)
BCAST4(bmC0, 0xBDA8FA49A0861A9B)
BCAST4(bmC1, 0x3E21EE9D7B4E3F05)
BCAST4(bmC2, 0xBE927E4F7EAC4BC6)
BCAST4(bmC3, 0x3EFA01A019C844F5)
BCAST4(bmC4, 0xBF56C16C16C14F91)
BCAST4(bmC5, 0x3FA555555555554B)

// Four int32 lanes of 1 and of ^1, for rounding the octant up to even.
DATA bmOneI<>+0(SB)/8, $0x0000000100000001
DATA bmOneI<>+8(SB)/8, $0x0000000100000001
GLOBL bmOneI<>(SB), RODATA|NOPTR, $16
DATA bmEvenI<>+0(SB)/8, $0xFFFFFFFEFFFFFFFE
DATA bmEvenI<>+8(SB)/8, $0xFFFFFFFEFFFFFFFE
GLOBL bmEvenI<>(SB), RODATA|NOPTR, $16

// func boxMullerAVX2(dst *complex128, u, v *float64, n int, gain float64)
// dst[i] = (r·cos·gain, r·sin·gain) with r = √(−2·log u[i]) and
// sin, cos = Sincos(2π·v[i]), four lanes at a time; n is a multiple of 4.
// The log is log_amd64.s and the sincos math.Sincos, operation for
// operation with separate VMULPD/VADDPD (never FMA): the Frexp is done on
// the bit pattern, the f1 ≤ √2/2 test is the same CMP predicate 5 (NLT),
// and Sincos's octant branches become masks: after rounding j up to even,
// bit 1 of j swaps sin and cos, bit 2 negates sin, and bit 1 XOR bit 2
// negates cos. u must lie in (0, 1] and v in [0, 1), where Log and
// Sincos take no special-case branch.
TEXT ·boxMullerAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         u+8(FP), SI
	MOVQ         v+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD gain+32(FP), Y15
	VMOVUPD      bmOne<>(SB), Y14
	SHRQ         $2, CX
	JZ           bmdone

bmloop:
	// f1, k := Frexp(u), as log_amd64.s: f1 keeps u's mantissa under
	// 0.5's exponent; k = exponent − 1022, formed exactly as 2⁵²+e − 2⁵².
	VMOVUPD (SI), Y0
	VANDPD  bmMant<>(SB), Y0, Y2
	VORPD   bmHalf<>(SB), Y2, Y2  // f1
	VPSRLQ  $52, Y0, Y1
	VPAND   bmExp<>(SB), Y1, Y1
	VPOR    bmTwo52<>(SB), Y1, Y1
	VSUBPD  bmTwo52<>(SB), Y1, Y1
	VSUBPD  bmBias<>(SB), Y1, Y1  // k

	// if !(√2/2 < f1) { k -= 1; f1 *= 2 }, as (k − t, f1·(t+1)).
	VMOVUPD bmHSqrt2<>(SB), Y3
	VCMPPD  $5, Y2, Y3, Y3
	VANDPD  Y14, Y3, Y3
	VSUBPD  Y3, Y1, Y1
	VADDPD  Y14, Y3, Y3
	VMULPD  Y3, Y2, Y2
	VSUBPD  Y14, Y2, Y2           // f = f1 − 1

	// s = f/(2+f); s2 = s·s; s4 = s2·s2
	VADDPD bmTwo<>(SB), Y2, Y0
	VDIVPD Y0, Y2, Y3             // s
	VMULPD Y3, Y3, Y4             // s2
	VMULPD Y4, Y4, Y5             // s4

	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD bmL7<>(SB), Y5, Y6
	VADDPD bmL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD bmL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD bmL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4             // t1

	// t2 = s4·(L2 + s4·(L4 + s4·L6)); R = t1 + t2
	VMULPD bmL6<>(SB), Y5, Y6
	VADDPD bmL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD bmL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5             // t2
	VADDPD Y5, Y4, Y4             // R

	// log = k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f), hfsq = 0.5·f·f
	VMULPD bmHalf<>(SB), Y2, Y0
	VMULPD Y2, Y0, Y0             // hfsq
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD bmLn2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	VMULPD bmLn2Hi<>(SB), Y1, Y1
	VSUBPD Y0, Y1, Y1             // log u

	// r = √(−2·log u)
	VMULPD  bmMinus2<>(SB), Y1, Y1
	VSQRTPD Y1, Y1                // r

	// x = 2π·v; j = int(x·(4/π)), rounded up to even; y = float(j)
	VMOVUPD     (DX), Y7
	VMULPD      bmTwoPi<>(SB), Y7, Y7
	VMULPD      bmFourOverPi<>(SB), Y7, Y8
	VCVTTPD2DQY Y8, X8
	VPADDD      bmOneI<>(SB), X8, X8
	VPAND       bmEvenI<>(SB), X8, X8
	VCVTDQ2PD   X8, Y9

	// z = ((x − y·PI4A) − y·PI4B) − y·PI4C; zz = z·z
	VMULPD bmPI4A<>(SB), Y9, Y10
	VSUBPD Y10, Y7, Y7
	VMULPD bmPI4B<>(SB), Y9, Y10
	VSUBPD Y10, Y7, Y7
	VMULPD bmPI4C<>(SB), Y9, Y10
	VSUBPD Y10, Y7, Y7            // z
	VMULPD Y7, Y7, Y9             // zz

	// cos = 1 − 0.5·zz + zz·zz·((((((C0·zz)+C1)·zz+C2)·zz+C3)·zz+C4)·zz+C5)
	VMULPD bmC0<>(SB), Y9, Y10
	VADDPD bmC1<>(SB), Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD bmC2<>(SB), Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD bmC3<>(SB), Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD bmC4<>(SB), Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD bmC5<>(SB), Y10, Y10
	VMULPD Y9, Y9, Y11
	VMULPD Y11, Y10, Y10
	VMULPD bmHalf<>(SB), Y9, Y11
	VSUBPD Y11, Y14, Y11
	VADDPD Y10, Y11, Y10          // cos before the octant fix-up

	// sin = z + z·zz·((((((S0·zz)+S1)·zz+S2)·zz+S3)·zz+S4)·zz+S5)
	VMULPD bmS0<>(SB), Y9, Y11
	VADDPD bmS1<>(SB), Y11, Y11
	VMULPD Y9, Y11, Y11
	VADDPD bmS2<>(SB), Y11, Y11
	VMULPD Y9, Y11, Y11
	VADDPD bmS3<>(SB), Y11, Y11
	VMULPD Y9, Y11, Y11
	VADDPD bmS4<>(SB), Y11, Y11
	VMULPD Y9, Y11, Y11
	VADDPD bmS5<>(SB), Y11, Y11
	VMULPD Y9, Y7, Y12
	VMULPD Y11, Y12, Y12
	VADDPD Y12, Y7, Y11           // sin before the octant fix-up

	// Octant j&7 ∈ {0, 2, 4, 6}: bit 1 → sign bit swaps, bit 2 → sign
	// bit negates sin, and their XOR negates cos.
	VPMOVZXDQ X8, Y8
	VPSLLQ    $62, Y8, Y12        // swap
	VPSLLQ    $61, Y8, Y13
	VXORPD    Y12, Y13, Y8
	VANDPD    bmSign<>(SB), Y13, Y13 // sin sign
	VANDPD    bmSign<>(SB), Y8, Y8   // cos sign
	VBLENDVPD Y12, Y10, Y11, Y0
	VBLENDVPD Y12, Y11, Y10, Y2
	VXORPD    Y13, Y0, Y0         // sin
	VXORPD    Y8, Y2, Y2          // cos

	// dst = (r·cos·gain, r·sin·gain), interleaved.
	VMULPD     Y2, Y1, Y2
	VMULPD     Y15, Y2, Y2
	VMULPD     Y0, Y1, Y0
	VMULPD     Y15, Y0, Y0
	VUNPCKLPD  Y0, Y2, Y3         // [re0 im0 re2 im2]
	VUNPCKHPD  Y0, Y2, Y4         // [re1 im1 re3 im3]
	VPERM2F128 $0x20, Y4, Y3, Y5
	VPERM2F128 $0x31, Y4, Y3, Y6
	VMOVUPD    Y5, (DI)
	VMOVUPD    Y6, 32(DI)
	ADDQ       $64, DI
	ADDQ       $32, SI
	ADDQ       $32, DX
	DECQ       CX
	JNZ        bmloop

bmdone:
	VZEROUPPER
	RET

// func packIQ32AVX2(dst *byte, src *complex128, n int)
// VCVTPD2PS narrows four components per instruction with the rounding
// float32(x) uses; the narrowed [re im re im] is the wire layout.
TEXT ·packIQ32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   pkpairs

pkloop:
	VCVTPD2PSY (SI), X0
	VCVTPD2PSY 32(SI), X1
	VCVTPD2PSY 64(SI), X2
	VCVTPD2PSY 96(SI), X3
	VMOVUPS    X0, (DI)
	VMOVUPS    X1, 16(DI)
	VMOVUPS    X2, 32(DI)
	VMOVUPS    X3, 48(DI)
	ADDQ       $128, SI
	ADDQ       $64, DI
	DECQ       DX
	JNZ        pkloop

pkpairs:
	ANDQ $7, CX
	CMPQ CX, $2
	JB   pkone
	VCVTPD2PSY (SI), X0
	VMOVUPS    X0, (DI)
	ADDQ       $32, SI
	ADDQ       $16, DI
	SUBQ       $2, CX
	JMP        pkpairs

pkone:
	TESTQ      CX, CX
	JZ         pkdone
	VCVTPD2PSX (SI), X0
	VMOVSD     X0, (DI)

pkdone:
	VZEROUPPER
	RET

// func unpackIQ32AVX2(dst *complex128, src *byte, n int)
// VCVTPS2PD widens four components per instruction exactly, as float64(f)
// does, quieting signalling NaNs the same way.
TEXT ·unpackIQ32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   uppairs

uploop:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	VCVTPS2PD 32(SI), Y2
	VCVTPS2PD 48(SI), Y3
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	VMOVUPD   Y2, 64(DI)
	VMOVUPD   Y3, 96(DI)
	ADDQ      $64, SI
	ADDQ      $128, DI
	DECQ      DX
	JNZ       uploop

uppairs:
	ANDQ $7, CX
	CMPQ CX, $2
	JB   upone
	VCVTPS2PD (SI), Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	SUBQ      $2, CX
	JMP       uppairs

upone:
	TESTQ     CX, CX
	JZ        updone
	VCVTPS2PD (SI), X0
	VMOVUPD   X0, (DI)

updone:
	VZEROUPPER
	RET
