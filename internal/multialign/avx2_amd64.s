#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func rowAVX8(prev, cur, maxY, ex *int32, n int, open, ext int32, mx *int32)
//
// One matrix row over n columns of the 8-lane interleaved Gotoh
// recurrence, 8 exact int32 lanes per ymm register (Figure 7 layout,
// 32-byte column stride). Per column c:
//
//	d    = prev block of column c-1        (diagonal predecessors)
//	v    = max(0, max(d, mx, maxY[c]) + e) (Figure 3 cell)
//	cur[c]  = v
//	g    = d - open
//	mx      = max(g, mx) - ext             (horizontal gap chain)
//	maxY[c] = max(g, maxY[c]) - ext        (vertical gap chains)
//
// Overridden columns arrive as sentinel exchange values (MinInt32, see
// sentinel16 in avx2_amd64.go) that the clamp turns into the overriding
// zero, so the loop needs no mask and is branch-free. The caller
// guarantees the span contains no left-border columns.
TEXT ·rowAVX8(SB), NOSPLIT, $0-56
	MOVQ prev+0(FP), SI
	MOVQ cur+8(FP), DI
	MOVQ maxY+16(FP), BX
	MOVQ ex+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ mx+48(FP), AX
	TESTQ CX, CX
	JZ   done

	MOVL         open+40(FP), R8
	MOVQ         R8, X5
	VPBROADCASTD X5, Y5 // gap-open penalty in all lanes
	MOVL         ext+44(FP), R9
	MOVQ         R9, X6
	VPBROADCASTD X6, Y6 // gap-extension penalty in all lanes
	VPXOR        Y7, Y7, Y7     // zero, for the clamp
	VMOVDQU      (AX), Y4       // mx carry-in

loop:
	VMOVDQU      (SI), Y0 // d = prev column block
	VMOVDQU      (BX), Y1 // maxY[c]
	VPMAXSD      Y1, Y4, Y2
	VPMAXSD      Y0, Y2, Y2 // max(d, mx, maxY)
	VPBROADCASTD (DX), Y3   // exchange value e
	VPADDD       Y3, Y2, Y2
	VPMAXSD      Y7, Y2, Y2 // clamp at zero
	VMOVDQU      Y2, (DI)   // cur[c] = v
	VPSUBD       Y5, Y0, Y0 // g = d - open
	VPMAXSD      Y0, Y4, Y4
	VPSUBD       Y6, Y4, Y4 // mx = max(g, mx) - ext
	VPMAXSD      Y0, Y1, Y1
	VPSUBD       Y6, Y1, Y1
	VMOVDQU      Y1, (BX)   // maxY[c] = max(g, maxY) - ext
	ADDQ         $32, SI
	ADDQ         $32, DI
	ADDQ         $32, BX
	ADDQ         $4, DX
	DECQ         CX
	JNZ          loop

	VMOVDQU Y4, (AX) // mx carry-out

done:
	VZEROUPPER
	RET

// The int16 pair kernels advance TWO matrix rows (y, y+1) of the
// 16-lane interleaved Gotoh recurrence in one sweep over columns 1..n,
// 16 saturating int16 lanes per ymm register (same 32-byte column
// stride as rowAVX8, twice the matrices). The row traffic bounds the
// sweep once the interleaved rows spill out of L1, and pairing halves
// it: row y's cells live in registers (Y13 carries v_y(c-1), the
// diagonal input of row y+1), and row y+1 is written in place over row
// y-1 in the buffer `a` (each column loads the old value before storing
// it, so the y-1 row keeps serving as row y's diagonal input).
//
// Per column c, with dY and vYprev starting at the zero boundary column
// and the gap maxima mxY, mxY1 at negInf16:
//
//	vY      = max(0, adds(max(dY, mxY, maxY[c]), eY[c]))    // in-register
//	gY      = subs(dY, open); mxY = subs(max(gY, mxY), ext)
//	maxY'   = subs(max(gY, maxY[c]), ext)                   // after row y
//	dY      = a[c]                                          // old row y-1 value
//	vY1     = max(0, adds(max(vYprev, mxY1, maxY'), eY1[c]))
//	a[c]    = vY1                                           // row y+1 in place
//	gY1     = subs(vYprev, open); mxY1 = subs(max(gY1, mxY1), ext)
//	maxY[c] = subs(max(gY1, maxY'), ext)                    // after row y+1
//	vYprev  = vY
//
// Overridden columns of either row arrive as sentinel exchange values
// (-32768, see sentinel16): the add cannot clip (best >= 0) and the
// clamp gives the overriding zero. The left border is the same case
// per lane: lane k's matrix starts at column k+1, so in columns 1..15
// each exchange value is VPMINSW'd with row c-1 of borderMask16, which
// holds the sentinel in lanes k >= c and leaves the other lanes alone.
// The border cells come out exactly zero, so they feed row y+1 and the
// gap chains like any other cell and need no repair afterwards.
//
// The tracking kernels OR the lanes of any cell reaching satLimit16
// into a sticky accumulator whose byte mask is OR-merged into *sat on
// exit; a nonzero *sat obliges the caller to discard the rows and re-run
// the group in int32. Unflagged rows are exact: values stay below
// satLimit16, one exchange add (|e| < Bias) cannot reach 32767, so the
// saturating ops never clip (the only exception, the negInf16 initials
// decaying toward -32768, always lose the maxima to real values and
// cannot surface). The Fast kernels drop the compare+accumulate pairs,
// for groups Int16Proven cleared. The Cap kernels also store row y into
// cur, for the pairs whose row y is a lane's bottom row; storing it on
// every pair would cost a fifth of the sweep rate.

#define EXCH(eoff, reg) VPBROADCASTW eoff(reg), Y3
#define EXCHBORDER(eoff, reg) VPBROADCASTW eoff(reg), Y3; VPMINSW (R13), Y3, Y3
#define SATTRACK(v) VPCMPGTW Y8, v, Y9; VPOR Y9, Y10, Y10
#define SATNONE(v)
#define STOREY(off) VMOVDQU Y2, off(DI)
#define STORENONE(off)

// PAIRCOL is one column of the pair sweep; EX loads the exchange value
// of a row into Y3, SAT checks a new cell, STY stores row y's cell.
#define PAIRCOL(off, eoff, EX, SAT, STY) \
	VMOVDQU off(BX), Y1   \ // maxY[c]
	VPMAXSW Y1, Y4, Y2    \
	VPMAXSW Y11, Y2, Y2   \ // max(dY, mxY, maxY)
	EX(eoff, DX)          \ // eY
	VPADDSW Y3, Y2, Y2    \
	VPMAXSW Y7, Y2, Y2    \ // vY
	SAT(Y2)               \
	STY(off)              \
	VPSUBSW Y5, Y11, Y0   \ // gY = dY - open
	VPMAXSW Y0, Y4, Y4    \
	VPSUBSW Y6, Y4, Y4    \ // mxY
	VPMAXSW Y0, Y1, Y1    \
	VPSUBSW Y6, Y1, Y1    \ // maxY after row y
	VMOVDQU off(SI), Y11  \ // next dY = row y-1 at c, before overwrite
	VPMAXSW Y1, Y12, Y0   \
	VPMAXSW Y13, Y0, Y0   \ // max(vYprev, mxY1, maxY')
	EX(eoff, R12)         \ // eY1
	VPADDSW Y3, Y0, Y0    \
	VPMAXSW Y7, Y0, Y0    \ // vY1
	VMOVDQU Y0, off(SI)   \ // row y+1 over row y-1
	SAT(Y0)               \
	VPSUBSW Y5, Y13, Y3   \ // gY1 = vYprev - open
	VPMAXSW Y3, Y12, Y12  \
	VPSUBSW Y6, Y12, Y12  \ // mxY1
	VPMAXSW Y3, Y1, Y1    \
	VPSUBSW Y6, Y1, Y1    \ // maxY after row y+1
	VMOVDQU Y1, off(BX)   \
	VMOVDQA Y2, Y13       // vY becomes row y+1's next diagonal

#define PAIRNEXT(cols) \
	ADDQ $(32*cols), SI \
	ADDQ $(32*cols), DI \
	ADDQ $(32*cols), BX \
	ADDQ $(2*cols), DX  \
	ADDQ $(2*cols), R12

// PAIRSWEEP is a whole kernel body after the arguments are loaded: SI
// a, DI cur (written by the Cap variants only), BX maxY, DX exY, R12
// exY1, CX n, R8 open, R9 ext. It leaves the saturation accumulator in
// Y10. Its register moves into vector registers are VEX-encoded
// (VMOVQ): a legacy-SSE MOVQ after a ymm write costs an SSE/AVX
// transition, which on some hosts outweighs a whole short row pair.
#define PAIRSWEEP(SAT, STY) \
	VMOVQ        R8, X5                \
	VPBROADCASTW X5, Y5                \ // gap-open penalty in all lanes
	VMOVQ        R9, X6                \
	VPBROADCASTW X6, Y6                \ // gap-extension penalty in all lanes
	VPXOR        Y7, Y7, Y7            \ // zero, for the clamp
	MOVL         $0x7CFF7CFF, R10      \ // satLimit16-1 = 31999 word pair
	VMOVQ        R10, X8               \
	VPBROADCASTD X8, Y8                \
	VPXOR        Y10, Y10, Y10         \ // sticky saturation accumulator
	MOVL         $0xC000C000, R10      \ // negInf16 word pair
	VMOVQ        R10, X4               \
	VPBROADCASTD X4, Y4                \ // mxY
	VMOVDQA      Y4, Y12               \ // mxY1
	VPXOR        Y11, Y11, Y11         \ // dY: boundary column of row y-1
	VPXOR        Y13, Y13, Y13         \ // vYprev: boundary column of row y
	LEAQ         ·borderMask16(SB), R13 \
	MOVQ         $15, R8               \
	CMPQ         CX, R8                \
	CMOVQLT      CX, R8                \ // border columns: min(n, 15)
	SUBQ         R8, CX                \
	TESTQ        R8, R8                \
	JZ           exit                  \
border:                                \
	PAIRCOL(0, 0, EXCHBORDER, SAT, STY) \
	PAIRNEXT(1)                        \
	ADDQ         $32, R13              \
	DECQ         R8                    \
	JNZ          border                \
	MOVQ         CX, R8                \
	SHRQ         $1, R8                \ // column pairs
	ANDQ         $1, CX                \
	TESTQ        R8, R8                \
	JZ           tail                  \
loop:                                  \
	PAIRCOL(0, 0, EXCH, SAT, STY)      \
	PAIRCOL(32, 2, EXCH, SAT, STY)     \
	PAIRNEXT(2)                        \
	DECQ         R8                    \
	JNZ          loop                  \
tail:                                  \
	TESTQ        CX, CX                \
	JZ           exit                  \
	PAIRCOL(0, 0, EXCH, SAT, STY)      \
exit:

// func rowAVX16Pair(a, maxY, exY, exY1 *int16, n int, open, ext int16, sat *uint32)
TEXT ·rowAVX16Pair(SB), NOSPLIT, $0-56
	MOVQ    a+0(FP), SI
	MOVQ    maxY+8(FP), BX
	MOVQ    exY+16(FP), DX
	MOVQ    exY1+24(FP), R12
	MOVQ    n+32(FP), CX
	MOVWLZX open+40(FP), R8
	MOVWLZX ext+42(FP), R9
	PAIRSWEEP(SATTRACK, STORENONE)
	MOVQ      sat+48(FP), R11
	VPMOVMSKB Y10, R8 // byte mask of saturated lanes
	ORL       R8, (R11)
	VZEROUPPER
	RET

// func rowAVX16PairFast(a, maxY, exY, exY1 *int16, n int, open, ext int16)
TEXT ·rowAVX16PairFast(SB), NOSPLIT, $0-44
	MOVQ    a+0(FP), SI
	MOVQ    maxY+8(FP), BX
	MOVQ    exY+16(FP), DX
	MOVQ    exY1+24(FP), R12
	MOVQ    n+32(FP), CX
	MOVWLZX open+40(FP), R8
	MOVWLZX ext+42(FP), R9
	PAIRSWEEP(SATNONE, STORENONE)
	VZEROUPPER
	RET

// func rowAVX16PairCap(a, cur, maxY, exY, exY1 *int16, n int, open, ext int16, sat *uint32)
TEXT ·rowAVX16PairCap(SB), NOSPLIT, $0-64
	MOVQ    a+0(FP), SI
	MOVQ    cur+8(FP), DI
	MOVQ    maxY+16(FP), BX
	MOVQ    exY+24(FP), DX
	MOVQ    exY1+32(FP), R12
	MOVQ    n+40(FP), CX
	MOVWLZX open+48(FP), R8
	MOVWLZX ext+50(FP), R9
	PAIRSWEEP(SATTRACK, STOREY)
	MOVQ      sat+56(FP), R11
	VPMOVMSKB Y10, R8
	ORL       R8, (R11)
	VZEROUPPER
	RET

// func rowAVX16PairCapFast(a, cur, maxY, exY, exY1 *int16, n int, open, ext int16)
TEXT ·rowAVX16PairCapFast(SB), NOSPLIT, $0-52
	MOVQ    a+0(FP), SI
	MOVQ    cur+8(FP), DI
	MOVQ    maxY+16(FP), BX
	MOVQ    exY+24(FP), DX
	MOVQ    exY1+32(FP), R12
	MOVQ    n+40(FP), CX
	MOVWLZX open+48(FP), R8
	MOVWLZX ext+50(FP), R9
	PAIRSWEEP(SATNONE, STOREY)
	VZEROUPPER
	RET
