#include "textflag.h"

// Every row routine walks its rows 4 cells at a time with the cell index
// in AX, up to CX = len(d) rounded down to a multiple of 4, and returns CX.
// DI holds d.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	// CPUID leaf 0 returns the highest standard leaf; it must reach 7.
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JCS  done

	// Leaf 1, ECX bits 27 and 28: OSXSAVE (XGETBV works) and AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done

	// XCR0 bits 1 and 2: the OS saves the XMM and the YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done

	// Leaf 7, subleaf 0, EBX bit 5: AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)

done:
	RET

// func star7(d []float64, s *[7][]float64, c *[7]float64) int
//
// The seven rows of *s (slices 24 bytes apart) sit in BX, SI and R8–R12,
// their coefficients in Y0–Y6, in point order. Each round sums the products
// left to right in Y7, with Y8 as scratch.
TEXT ·star7(SB), NOSPLIT, $0-48
	MOVQ         d_base+0(FP), DI
	MOVQ         d_len+8(FP), CX
	ANDQ         $-4, CX
	MOVQ         s+24(FP), DX
	MOVQ         0(DX), BX
	MOVQ         24(DX), SI
	MOVQ         48(DX), R8
	MOVQ         72(DX), R9
	MOVQ         96(DX), R10
	MOVQ         120(DX), R11
	MOVQ         144(DX), R12
	MOVQ         c+32(FP), DX
	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2
	VBROADCASTSD 24(DX), Y3
	VBROADCASTSD 32(DX), Y4
	VBROADCASTSD 40(DX), Y5
	VBROADCASTSD 48(DX), Y6
	XORQ         AX, AX
	JMP          test

loop:
	VMULPD  (BX)(AX*8), Y0, Y7
	VMULPD  (SI)(AX*8), Y1, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  (R8)(AX*8), Y2, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  (R9)(AX*8), Y3, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  (R10)(AX*8), Y4, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  (R11)(AX*8), Y5, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  (R12)(AX*8), Y6, Y8
	VADDPD  Y8, Y7, Y7
	VMOVUPD Y7, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+40(FP)
	RET

// func mul(d, s []float64, c float64) int
TEXT ·mul(SB), NOSPLIT, $0-64
	MOVQ         d_base+0(FP), DI
	MOVQ         d_len+8(FP), CX
	ANDQ         $-4, CX
	MOVQ         s_base+24(FP), SI
	VBROADCASTSD c+48(FP), Y0
	XORQ         AX, AX
	JMP          test

loop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+56(FP)
	RET

// func mulAdd(d, s []float64, c float64) int
TEXT ·mulAdd(SB), NOSPLIT, $0-64
	MOVQ         d_base+0(FP), DI
	MOVQ         d_len+8(FP), CX
	ANDQ         $-4, CX
	MOVQ         s_base+24(FP), SI
	VBROADCASTSD c+48(FP), Y0
	XORQ         AX, AX
	JMP          test

loop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX

test:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+56(FP)
	RET

// func peakLoop(a *[PeakLanes]float64, m, c float64, iters int64)
//
// Twelve registers of independent chains keep both multiply-add ports
// busy: each chain waits a multiply and an add latency per round.
TEXT ·peakLoop(SB), NOSPLIT, $0-32
	MOVQ         a+0(FP), DI
	VBROADCASTSD m+8(FP), Y12
	VBROADCASTSD c+16(FP), Y13
	MOVQ         iters+24(FP), CX
	VMOVUPD      0(DI), Y0
	VMOVUPD      32(DI), Y1
	VMOVUPD      64(DI), Y2
	VMOVUPD      96(DI), Y3
	VMOVUPD      128(DI), Y4
	VMOVUPD      160(DI), Y5
	VMOVUPD      192(DI), Y6
	VMOVUPD      224(DI), Y7
	VMOVUPD      256(DI), Y8
	VMOVUPD      288(DI), Y9
	VMOVUPD      320(DI), Y10
	VMOVUPD      352(DI), Y11
	TESTQ        CX, CX
	JLE          done

loop:
	VMULPD Y12, Y0, Y0
	VMULPD Y12, Y1, Y1
	VMULPD Y12, Y2, Y2
	VMULPD Y12, Y3, Y3
	VMULPD Y12, Y4, Y4
	VMULPD Y12, Y5, Y5
	VMULPD Y12, Y6, Y6
	VMULPD Y12, Y7, Y7
	VMULPD Y12, Y8, Y8
	VMULPD Y12, Y9, Y9
	VMULPD Y12, Y10, Y10
	VMULPD Y12, Y11, Y11
	VADDPD Y13, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y13, Y2, Y2
	VADDPD Y13, Y3, Y3
	VADDPD Y13, Y4, Y4
	VADDPD Y13, Y5, Y5
	VADDPD Y13, Y6, Y6
	VADDPD Y13, Y7, Y7
	VADDPD Y13, Y8, Y8
	VADDPD Y13, Y9, Y9
	VADDPD Y13, Y10, Y10
	VADDPD Y13, Y11, Y11
	DECQ   CX
	JNZ    loop

done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 256(DI)
	VMOVUPD Y9, 288(DI)
	VMOVUPD Y10, 320(DI)
	VMOVUPD Y11, 352(DI)
	VZEROUPPER
	RET
