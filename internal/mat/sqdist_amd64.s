#include "textflag.h"

// func sqDistsAVX(dst, x, ct *float64, v, k, k16 int)
//
// Squared distances from x to 16 prototypes per block of the dimension-major
// codebook ct ([v][k], row stride k). Each block keeps four YMM accumulators
// (prototypes b..b+15), starts them at +0 and walks the v dimensions in
// ascending order: broadcast x[j], subtract the 16 codebook entries of row j
// (x − c, as the scalar loop does), square, and add. Subtract, multiply and
// add are separate instructions — no FMA — so each lane rounds exactly like
// the scalar s += d*d chain.
TEXT ·sqDistsAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ ct+16(FP), DX
	MOVQ v+24(FP), R8
	MOVQ k+32(FP), R9
	MOVQ k16+40(FP), R10
	SHLQ $3, R9                  // codebook row stride in bytes
	SHRQ $4, R10                 // number of 16-prototype blocks
block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, AX                  // x cursor
	MOVQ DX, BX                  // codebook cursor: row j, column b
	MOVQ R8, CX
dim:
	VBROADCASTSD (AX), Y4
	VSUBPD (BX), Y4, Y5          // x[j] − c
	VSUBPD 32(BX), Y4, Y6
	VSUBPD 64(BX), Y4, Y7
	VSUBPD 96(BX), Y4, Y8
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VMULPD Y8, Y8, Y8
	VADDPD Y5, Y0, Y0            // separate add: two roundings, like scalar
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  dim
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	DECQ R10
	JNZ  block
	VZEROUPPER
	RET
