#include "textflag.h"

// The leaf of direct.go in AVX2: acc[r][l] = Σ_p x[r·xs+off[p]] · w[r·ws+p·8+l]
// for r < n, p ascending, the product and the sum rounded separately (VMULP*
// then VADDP*, never FMA) so every lane holds leafGo's bits.
//
// Registers, both dtypes: SI R8 R9 R10 the x base of rows 0-3, DI R11 R12 R13
// their w base, BX one past the last tap offset, CX the tap index counting up
// from -k to 0, DX the byte offset of the tap's panel row, AX the tap offset.

// ROW sets XR and WR to the bases of row min(r, n-1): a row beyond n
// recomputes row n-1, so the loop has one shape and reads nothing that the
// rows below n do not. In: CX = n-1, DX and BX = xs and ws in bytes, SI = x,
// DI = w.
#define ROW(r, XR, WR) \
	MOVQ $r, AX \
	CMPQ CX, AX \
	CMOVQLT CX, AX \
	MOVQ AX, WR \
	IMULQ DX, AX \
	LEAQ (SI)(AX*1), XR \
	IMULQ BX, WR \
	ADDQ DI, WR

// SETUP leaves the registers as the header says; shift is log2 of the element
// size.
#define SETUP(shift) \
	MOVQ n+8(FP), CX \
	DECQ CX \
	MOVQ xs+40(FP), DX \
	SHLQ $shift, DX \
	MOVQ ws+96(FP), BX \
	SHLQ $shift, BX \
	MOVQ x_base+16(FP), SI \
	MOVQ w_base+72(FP), DI \
	ROW(1, R8, R11) \
	ROW(2, R9, R12) \
	ROW(3, R10, R13) \
	MOVQ off_len+56(FP), CX \
	MOVQ off_base+48(FP), BX \
	LEAQ (BX)(CX*4), BX \
	NEGQ CX \
	XORQ DX, DX

// ROW64 adds one tap to the two accumulators of a row of eight float64.
#define ROW64(X, W, LO, HI) \
	VBROADCASTSD (X)(AX*8), Y8 \
	VMULPD (W)(DX*1), Y8, Y9 \
	VADDPD Y9, LO, LO \
	VMULPD 32(W)(DX*1), Y8, Y10 \
	VADDPD Y10, HI, HI

// func leafAVX2F64(acc *[32]float64, n int, x []float64, xs int, off []int32, w []float64, ws int)
TEXT ·leafAVX2F64(SB), NOSPLIT, $0-104
	SETUP(3)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ    store64

tap64:
	MOVLQSX (BX)(CX*4), AX
	ROW64(SI, DI, Y0, Y1)
	ROW64(R8, R11, Y2, Y3)
	ROW64(R9, R12, Y4, Y5)
	ROW64(R10, R13, Y6, Y7)
	ADDQ $64, DX
	INCQ CX
	JNZ  tap64

store64:
	MOVQ acc+0(FP), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	VZEROUPPER
	RET

// ROW32 adds one tap to the accumulator of a row of eight float32.
#define ROW32(X, W, ACC) \
	VBROADCASTSS (X)(AX*4), Y8 \
	VMULPS (W)(DX*1), Y8, Y9 \
	VADDPS Y9, ACC, ACC

// func leafAVX2F32(acc *[32]float32, n int, x []float32, xs int, off []int32, w []float32, ws int)
TEXT ·leafAVX2F32(SB), NOSPLIT, $0-104
	SETUP(2)
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ CX, CX
	JZ    store32

tap32:
	MOVLQSX (BX)(CX*4), AX
	ROW32(SI, DI, Y0)
	ROW32(R8, R11, Y1)
	ROW32(R9, R12, Y2)
	ROW32(R10, R13, Y3)
	ADDQ $32, DX
	INCQ CX
	JNZ  tap32

store32:
	MOVQ acc+0(FP), AX
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, 64(AX)
	VMOVUPS Y3, 96(AX)
	VZEROUPPER
	RET

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
