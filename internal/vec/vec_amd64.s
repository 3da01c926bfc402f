#include "go_asm.h"
#include "textflag.h"

// mulAdd walks its row 4 cells at a time with the cell index in AX, up to
// CX = len(d) rounded down to a multiple of 4, and returns CX. DI holds d.

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

// func star7Box(d, s []float64, b *Box, c *[7]float64)
//
// The box's cells are numbered j = p·SZ + r·SY + i from its first cell, and
// AX runs over them. DI holds d, and five pointers into s hold the
// neighbours of cell 0, in cells from s: BX −SZ (0), SI the centre (SZ),
// whose −1 and +1 neighbours are 8 bytes either side, R8 +SZ (2·SZ), R9 −SY
// (SZ−SY) and R10 +SY (SZ+SY). R11 holds the current row's first cell, R12
// the rows left in the plane, DX the planes left, and R13 b. The
// coefficients sit in Y0–Y6, in point order, and each cell's products are
// summed left to right in Y7, with Y8 as scratch: four cells at a time up
// to the last multiple of 4 in the row, then one at a time with VMULSD and
// VADDSD on the low lanes.
TEXT ·star7Box(SB), NOSPLIT, $0-64
	MOVQ         d_base+0(FP), DI
	MOVQ         s_base+24(FP), BX
	MOVQ         b+48(FP), R13
	MOVQ         c+56(FP), DX
	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2
	VBROADCASTSD 24(DX), Y3
	VBROADCASTSD 32(DX), Y4
	VBROADCASTSD 40(DX), Y5
	VBROADCASTSD 48(DX), Y6
	MOVQ         Box_SZ(R13), CX
	LEAQ         (BX)(CX*8), SI
	LEAQ         (SI)(CX*8), R8
	MOVQ         Box_SY(R13), CX
	NEGQ         CX
	LEAQ         (SI)(CX*8), R9
	NEGQ         CX
	LEAQ         (SI)(CX*8), R10
	XORQ         R11, R11
	MOVQ         Box_Planes(R13), DX

plane:
	MOVQ Box_Rows(R13), R12

row:
	MOVQ R11, AX
	MOVQ Box_N(R13), CX
	ANDQ $-4, CX
	ADDQ R11, CX
	JMP  vtest

vloop:
	VMULPD  (SI)(AX*8), Y0, Y7
	VMULPD  (BX)(AX*8), Y1, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  (R8)(AX*8), Y2, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  (R9)(AX*8), Y3, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  (R10)(AX*8), Y4, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  -8(SI)(AX*8), Y5, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  8(SI)(AX*8), Y6, Y8
	VADDPD  Y8, Y7, Y7
	VMOVUPD Y7, (DI)(AX*8)
	ADDQ    $4, AX

vtest:
	CMPQ AX, CX
	JLT  vloop
	MOVQ Box_N(R13), CX
	ADDQ R11, CX
	JMP  stest

sloop:
	VMULSD (SI)(AX*8), X0, X7
	VMULSD (BX)(AX*8), X1, X8
	VADDSD X8, X7, X7
	VMULSD (R8)(AX*8), X2, X8
	VADDSD X8, X7, X7
	VMULSD (R9)(AX*8), X3, X8
	VADDSD X8, X7, X7
	VMULSD (R10)(AX*8), X4, X8
	VADDSD X8, X7, X7
	VMULSD -8(SI)(AX*8), X5, X8
	VADDSD X8, X7, X7
	VMULSD 8(SI)(AX*8), X6, X8
	VADDSD X8, X7, X7
	VMOVSD X7, (DI)(AX*8)
	INCQ   AX

stest:
	CMPQ AX, CX
	JLT  sloop

	// Next row; after the plane's last, back to its first row and on
	// to the next plane.
	ADDQ  Box_SY(R13), R11
	DECQ  R12
	JNZ   row
	MOVQ  Box_Rows(R13), CX
	IMULQ Box_SY(R13), CX
	SUBQ  CX, R11
	ADDQ  Box_SZ(R13), R11
	DECQ  DX
	JNZ   plane
	VZEROUPPER
	RET

// func starBox(d, s []float64, b *Box, o []int, c []float64)
//
// The box's cells are numbered j = p·SZ + r·SY + i from its first cell, and
// AX runs over them. DI holds d, SI s, R15 the offsets o, R12 the
// coefficients c and R11 their count. R10 holds the current row's first
// cell, CX the cell just past its last, R9 the rows left in the plane, DX
// the planes left, and R13 b. For a group of cells starting at AX, R14
// holds &s[AX], R8 counts the points, BX holds o[p] (in a 16-cell group,
// &s[AX+o[p]], the base of the point's four loads), and Y0 the point's
// broadcast coefficient. Each cell's products are summed in point order:
// 16 cells at a time in Y4–Y7, with Y8–Y11 as scratch, then 4 at a time
// in Y4, then, in rows shorter than 4 cells, one at a time in X4.
TEXT ·starBox(SB), NOSPLIT, $0-104
	MOVQ d_base+0(FP), DI
	MOVQ s_base+24(FP), SI
	MOVQ b+48(FP), R13
	MOVQ o_base+56(FP), R15
	MOVQ o_len+64(FP), R11
	MOVQ c_base+80(FP), R12
	XORQ R10, R10
	MOVQ Box_Planes(R13), DX

plane:
	MOVQ Box_Rows(R13), R9

row:
	MOVQ R10, AX
	MOVQ Box_N(R13), CX
	ADDQ R10, CX
	CMPQ Box_N(R13), $4
	JLT  scalar

g16test:
	LEAQ 16(AX), BX
	CMPQ BX, CX
	JGT  g4test

	// A group: the first point's products, then each further point's
	// added.
	LEAQ         (SI)(AX*8), R14
	MOVQ         (R15), BX
	LEAQ         (R14)(BX*8), BX
	VBROADCASTSD (R12), Y0
	VMULPD       (BX), Y0, Y4
	VMULPD       32(BX), Y0, Y5
	VMULPD       64(BX), Y0, Y6
	VMULPD       96(BX), Y0, Y7
	MOVQ         $1, R8
	JMP          p16test

p16:
	MOVQ         (R15)(R8*8), BX
	LEAQ         (R14)(BX*8), BX
	VBROADCASTSD (R12)(R8*8), Y0
	VMULPD       (BX), Y0, Y8
	VMULPD       32(BX), Y0, Y9
	VMULPD       64(BX), Y0, Y10
	VMULPD       96(BX), Y0, Y11
	VADDPD       Y8, Y4, Y4
	VADDPD       Y9, Y5, Y5
	VADDPD       Y10, Y6, Y6
	VADDPD       Y11, Y7, Y7
	INCQ         R8

p16test:
	CMPQ    R8, R11
	JLT     p16
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, 64(DI)(AX*8)
	VMOVUPD Y7, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     g16test

g4test:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  tail

g4:
	LEAQ         (SI)(AX*8), R14
	MOVQ         (R15), BX
	VBROADCASTSD (R12), Y0
	VMULPD       (R14)(BX*8), Y0, Y4
	MOVQ         $1, R8
	JMP          p4test

p4:
	MOVQ         (R15)(R8*8), BX
	VBROADCASTSD (R12)(R8*8), Y0
	VMULPD       (R14)(BX*8), Y0, Y8
	VADDPD       Y8, Y4, Y4
	INCQ         R8

p4test:
	CMPQ    R8, R11
	JLT     p4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     g4test

	// The row's last n mod 4 cells: one more group over its last 4
	// cells, which computes the cells before them again from the same
	// inputs, to the same bits. After it AX = CX.
tail:
	CMPQ AX, CX
	JGE  next
	LEAQ -4(CX), AX
	JMP  g4

	// A row of fewer than 4 cells, one cell at a time.
scalar:
	CMPQ   AX, CX
	JGE    next
	LEAQ   (SI)(AX*8), R14
	MOVQ   (R15), BX
	VMOVSD (R12), X0
	VMULSD (R14)(BX*8), X0, X4
	MOVQ   $1, R8
	JMP    p1test

p1:
	MOVQ   (R15)(R8*8), BX
	VMOVSD (R12)(R8*8), X0
	VMULSD (R14)(BX*8), X0, X8
	VADDSD X8, X4, X4
	INCQ   R8

p1test:
	CMPQ   R8, R11
	JLT    p1
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    scalar

	// Next row; after the plane's last, back to its first row and on to
	// the next plane.
next:
	ADDQ  Box_SY(R13), R10
	DECQ  R9
	JNZ   row
	MOVQ  Box_Rows(R13), CX
	IMULQ Box_SY(R13), CX
	SUBQ  CX, R10
	ADDQ  Box_SZ(R13), R10
	DECQ  DX
	JNZ   plane
	VZEROUPPER
	RET

// func bandBox(d, s []float64, b *Box, o []int, w [][]float64, at int)
//
// starBox's loops with a band in place of each broadcast coefficient. The
// box's first cell is cell at of every band, and AX runs over the box's
// cells as at + j, j = p·SZ + r·SY + i: DI holds d and SI s, both moved at
// cells down, so AX indexes them as it indexes a band. R15 holds the
// offsets o, R12 the bands' slice headers w, 24 bytes apart, and R11 their
// count. R10 holds the current row's first cell, CX the cell just past its
// last, R9 the rows left in the plane, DX the planes left, and R13 b. For
// a group of cells starting at AX, R14 holds the address of its first cell
// in s, R8 counts the points, and BX holds band p's base, then o[p] (in a
// 16-cell group, the address of point p's first cell in s). Each cell's
// products are summed in point order: 16 cells at a time in Y4–Y7, with the
// band's cells and then their products in Y8–Y11, then 4 at a time in Y4,
// then, in rows shorter than 4 cells, one at a time in X4.
TEXT ·bandBox(SB), NOSPLIT, $0-112
	MOVQ d_base+0(FP), DI
	MOVQ s_base+24(FP), SI
	MOVQ b+48(FP), R13
	MOVQ o_base+56(FP), R15
	MOVQ o_len+64(FP), R11
	MOVQ w_base+80(FP), R12
	MOVQ at+104(FP), R10
	MOVQ R10, CX
	SHLQ $3, CX
	SUBQ CX, DI
	SUBQ CX, SI
	MOVQ Box_Planes(R13), DX

plane:
	MOVQ Box_Rows(R13), R9

row:
	MOVQ R10, AX
	MOVQ Box_N(R13), CX
	ADDQ R10, CX
	CMPQ Box_N(R13), $4
	JLT  scalar

g16test:
	LEAQ 16(AX), BX
	CMPQ BX, CX
	JGT  g4test

	// A group: the first point's products, then each further point's
	// added.
	LEAQ    (SI)(AX*8), R14
	MOVQ    (R12), BX
	VMOVUPD (BX)(AX*8), Y4
	VMOVUPD 32(BX)(AX*8), Y5
	VMOVUPD 64(BX)(AX*8), Y6
	VMOVUPD 96(BX)(AX*8), Y7
	MOVQ    (R15), BX
	LEAQ    (R14)(BX*8), BX
	VMULPD  (BX), Y4, Y4
	VMULPD  32(BX), Y5, Y5
	VMULPD  64(BX), Y6, Y6
	VMULPD  96(BX), Y7, Y7
	MOVQ    $1, R8
	JMP     p16test

p16:
	LEAQ    (R8)(R8*2), BX
	MOVQ    (R12)(BX*8), BX
	VMOVUPD (BX)(AX*8), Y8
	VMOVUPD 32(BX)(AX*8), Y9
	VMOVUPD 64(BX)(AX*8), Y10
	VMOVUPD 96(BX)(AX*8), Y11
	MOVQ    (R15)(R8*8), BX
	LEAQ    (R14)(BX*8), BX
	VMULPD  (BX), Y8, Y8
	VMULPD  32(BX), Y9, Y9
	VMULPD  64(BX), Y10, Y10
	VMULPD  96(BX), Y11, Y11
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y10, Y6, Y6
	VADDPD  Y11, Y7, Y7
	INCQ    R8

p16test:
	CMPQ    R8, R11
	JLT     p16
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, 64(DI)(AX*8)
	VMOVUPD Y7, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     g16test

g4test:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  tail

g4:
	LEAQ    (SI)(AX*8), R14
	MOVQ    (R12), BX
	VMOVUPD (BX)(AX*8), Y4
	MOVQ    (R15), BX
	VMULPD  (R14)(BX*8), Y4, Y4
	MOVQ    $1, R8
	JMP     p4test

p4:
	LEAQ    (R8)(R8*2), BX
	MOVQ    (R12)(BX*8), BX
	VMOVUPD (BX)(AX*8), Y8
	MOVQ    (R15)(R8*8), BX
	VMULPD  (R14)(BX*8), Y8, Y8
	VADDPD  Y8, Y4, Y4
	INCQ    R8

p4test:
	CMPQ    R8, R11
	JLT     p4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     g4test

	// The row's last n mod 4 cells: one more group over its last 4
	// cells, which computes the cells before them again from the same
	// inputs, to the same bits. After it AX = CX.
tail:
	CMPQ AX, CX
	JGE  next
	LEAQ -4(CX), AX
	JMP  g4

	// A row of fewer than 4 cells, one cell at a time.
scalar:
	CMPQ   AX, CX
	JGE    next
	LEAQ   (SI)(AX*8), R14
	MOVQ   (R12), BX
	VMOVSD (BX)(AX*8), X4
	MOVQ   (R15), BX
	VMULSD (R14)(BX*8), X4, X4
	MOVQ   $1, R8
	JMP    p1test

p1:
	LEAQ   (R8)(R8*2), BX
	MOVQ   (R12)(BX*8), BX
	VMOVSD (BX)(AX*8), X8
	MOVQ   (R15)(R8*8), BX
	VMULSD (R14)(BX*8), X8, X8
	VADDSD X8, X4, X4
	INCQ   R8

p1test:
	CMPQ   R8, R11
	JLT    p1
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    scalar

	// Next row; after the plane's last, back to its first row and on to
	// the next plane.
next:
	ADDQ  Box_SY(R13), R10
	DECQ  R9
	JNZ   row
	MOVQ  Box_Rows(R13), CX
	IMULQ Box_SY(R13), CX
	SUBQ  CX, R10
	ADDQ  Box_SZ(R13), R10
	DECQ  DX
	JNZ   plane
	VZEROUPPER
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
