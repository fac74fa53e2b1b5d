#include "textflag.h"

// +Inf; 16.0 in all four lanes (the index step per block); and the lane
// offsets 0..15 of a 16-prototype block, as float64.
DATA nearestInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL nearestInf<>(SB), RODATA|NOPTR, $8
DATA nearestBlock<>+0(SB)/8, $0x4030000000000000
DATA nearestBlock<>+8(SB)/8, $0x4030000000000000
DATA nearestBlock<>+16(SB)/8, $0x4030000000000000
DATA nearestBlock<>+24(SB)/8, $0x4030000000000000
GLOBL nearestBlock<>(SB), RODATA|NOPTR, $32
DATA nearestLanes<>+0(SB)/8, $0x0000000000000000
DATA nearestLanes<>+8(SB)/8, $0x3ff0000000000000
DATA nearestLanes<>+16(SB)/8, $0x4000000000000000
DATA nearestLanes<>+24(SB)/8, $0x4008000000000000
DATA nearestLanes<>+32(SB)/8, $0x4010000000000000
DATA nearestLanes<>+40(SB)/8, $0x4014000000000000
DATA nearestLanes<>+48(SB)/8, $0x4018000000000000
DATA nearestLanes<>+56(SB)/8, $0x401c000000000000
DATA nearestLanes<>+64(SB)/8, $0x4020000000000000
DATA nearestLanes<>+72(SB)/8, $0x4022000000000000
DATA nearestLanes<>+80(SB)/8, $0x4024000000000000
DATA nearestLanes<>+88(SB)/8, $0x4026000000000000
DATA nearestLanes<>+96(SB)/8, $0x4028000000000000
DATA nearestLanes<>+104(SB)/8, $0x402a000000000000
DATA nearestLanes<>+112(SB)/8, $0x402c000000000000
DATA nearestLanes<>+120(SB)/8, $0x402e000000000000
GLOBL nearestLanes<>(SB), RODATA|NOPTR, $128

// func nearestAVX(x, ct *float64, v, k, k16 int) (best int, bestD float64)
//
// First nearest of the first k16 prototypes of the dimension-major codebook
// ct ([v][k], row stride k) to x. Per 16-prototype block, four YMM
// accumulators (Y0-Y3) start at +0 and walk the v dimensions in ascending
// order: broadcast x[j] (Y4), subtract the 16 codebook entries of row j
// (x − c, as the scalar loop does), square, and add. Subtract, multiply and
// add are separate instructions — no FMA — so each lane rounds exactly like
// the scalar s += d*d chain.
//
// Each of the 16 lanes then keeps its first minimum: VCMPPD with predicate
// LT_OQ (false when either side is NaN) against the running minima (Y7-Y10,
// from +Inf) selects, by VBLENDVPD, both the new minimum and the block's base
// index (Y15, 16·block as float64, exact) into Y11-Y14. A lane sees its
// prototypes in ascending order and moves only on a strict less-than, so it
// holds the lowest index of its minimum. The merge takes the smallest lane
// minimum m, then the lowest index among lanes whose minimum equals m: that
// is the global first minimum. A lane never updated stays at +Inf with base
// 0, so when nothing is below +Inf the result is index 0 with +Inf.
//
// Only VEX-encoded instructions appear between the first YMM write and
// VZEROUPPER: a legacy-SSE instruction there stalls on the dirty upper
// halves (the SSE/AVX transition penalty).
TEXT ·nearestAVX(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	MOVQ ct+8(FP), DX
	MOVQ v+16(FP), R8
	MOVQ k+24(FP), R9
	MOVQ k16+32(FP), R10
	SHLQ $3, R9                  // codebook row stride in bytes
	SHRQ $4, R10                 // number of 16-prototype blocks
	VBROADCASTSD nearestInf<>(SB), Y7
	VMOVAPD Y7, Y8
	VMOVAPD Y7, Y9
	VMOVAPD Y7, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, AX                  // x cursor
	MOVQ DX, BX                  // codebook cursor: row j, column 16·block
	MOVQ R8, CX
dim:
	VBROADCASTSD (AX), Y4
	VSUBPD (BX), Y4, Y5          // x[j] − c
	VSUBPD 32(BX), Y4, Y6
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VADDPD Y5, Y0, Y0            // separate add: two roundings, like scalar
	VADDPD Y6, Y1, Y1
	VSUBPD 64(BX), Y4, Y5
	VSUBPD 96(BX), Y4, Y6
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VADDPD Y5, Y2, Y2
	VADDPD Y6, Y3, Y3
	ADDQ $8, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  dim
	VCMPPD $0x11, Y7, Y0, Y5     // distance < lane minimum (LT_OQ)
	VCMPPD $0x11, Y8, Y1, Y6
	VBLENDVPD Y5, Y0, Y7, Y7
	VBLENDVPD Y5, Y15, Y11, Y11
	VBLENDVPD Y6, Y1, Y8, Y8
	VBLENDVPD Y6, Y15, Y12, Y12
	VCMPPD $0x11, Y9, Y2, Y5
	VCMPPD $0x11, Y10, Y3, Y6
	VBLENDVPD Y5, Y2, Y9, Y9
	VBLENDVPD Y5, Y15, Y13, Y13
	VBLENDVPD Y6, Y3, Y10, Y10
	VBLENDVPD Y6, Y15, Y14, Y14
	VADDPD nearestBlock<>(SB), Y15, Y15
	ADDQ $128, DX
	DECQ R10
	JNZ  block

	// m = smallest lane minimum, broadcast to Y0.
	VMINPD Y8, Y7, Y0
	VMINPD Y10, Y9, Y1
	VMINPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMINPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VMINPD X1, X0, X0
	VBROADCASTSD X0, Y0
	VMOVSD X0, bestD+48(FP)

	// Lowest index among lanes whose minimum equals m; the others become
	// +Inf. Index = block base + lane offset.
	VBROADCASTSD nearestInf<>(SB), Y6
	VADDPD nearestLanes<>+0(SB), Y11, Y11
	VADDPD nearestLanes<>+32(SB), Y12, Y12
	VADDPD nearestLanes<>+64(SB), Y13, Y13
	VADDPD nearestLanes<>+96(SB), Y14, Y14
	VCMPPD $0x00, Y0, Y7, Y5     // lane minimum == m (EQ_OQ)
	VBLENDVPD Y5, Y11, Y6, Y1
	VCMPPD $0x00, Y0, Y8, Y5
	VBLENDVPD Y5, Y12, Y6, Y2
	VCMPPD $0x00, Y0, Y9, Y5
	VBLENDVPD Y5, Y13, Y6, Y3
	VCMPPD $0x00, Y0, Y10, Y5
	VBLENDVPD Y5, Y14, Y6, Y4
	VMINPD Y2, Y1, Y1
	VMINPD Y4, Y3, Y3
	VMINPD Y3, Y1, Y1
	VEXTRACTF128 $1, Y1, X2
	VMINPD X2, X1, X1
	VPERMILPD $1, X1, X2
	VMINPD X2, X1, X1
	VCVTTSD2SIQ X1, AX
	MOVQ AX, best+40(FP)
	VZEROUPPER
	RET
