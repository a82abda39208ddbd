#include "textflag.h"

// AVX2/FMA leaves of the GEMM and GEMV drivers, and the CPU probe that
// decides whether they may run. None of these bounds-checks anything: the
// Go wrappers in kernel_amd64.go check every operand first.

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

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The GEMM micro-kernels hold the mr x 6 tile in Y4..Y15: column jj of
// the tile is the pair Y(4+2jj), Y(5+2jj). Each step of the kc loop loads
// one packed column of A (mr elements, two vectors) into Y0/Y1, broadcasts
// the six packed elements of B in turn into Y2/Y3, and issues twelve FMAs.
// The tile is stored column-major to acc, 64 bytes per column.

#define GEMM_STORE \
	VMOVUPD Y4, 0(DX)    \
	VMOVUPD Y5, 32(DX)   \
	VMOVUPD Y6, 64(DX)   \
	VMOVUPD Y7, 96(DX)   \
	VMOVUPD Y8, 128(DX)  \
	VMOVUPD Y9, 160(DX)  \
	VMOVUPD Y10, 192(DX) \
	VMOVUPD Y11, 224(DX) \
	VMOVUPD Y12, 256(DX) \
	VMOVUPD Y13, 288(DX) \
	VMOVUPD Y14, 320(DX) \
	VMOVUPD Y15, 352(DX)

#define GEMM_ZERO \
	VXORPD Y4, Y4, Y4    \
	VXORPD Y5, Y5, Y5    \
	VXORPD Y6, Y6, Y6    \
	VXORPD Y7, Y7, Y7    \
	VXORPD Y8, Y8, Y8    \
	VXORPD Y9, Y9, Y9    \
	VXORPD Y10, Y10, Y10 \
	VXORPD Y11, Y11, Y11 \
	VXORPD Y12, Y12, Y12 \
	VXORPD Y13, Y13, Y13 \
	VXORPD Y14, Y14, Y14 \
	VXORPD Y15, Y15, Y15

// One kc step of the float64 kernel: A column at a(SI), B row at b(DI).
#define DSTEP(a, b) \
	VMOVUPD a(SI), Y0              \
	VMOVUPD a+32(SI), Y1           \
	VBROADCASTSD b(DI), Y2         \
	VBROADCASTSD b+8(DI), Y3       \
	VFMADD231PD Y0, Y2, Y4         \
	VFMADD231PD Y1, Y2, Y5         \
	VFMADD231PD Y0, Y3, Y6         \
	VFMADD231PD Y1, Y3, Y7         \
	VBROADCASTSD b+16(DI), Y2      \
	VBROADCASTSD b+24(DI), Y3      \
	VFMADD231PD Y0, Y2, Y8         \
	VFMADD231PD Y1, Y2, Y9         \
	VFMADD231PD Y0, Y3, Y10        \
	VFMADD231PD Y1, Y3, Y11        \
	VBROADCASTSD b+32(DI), Y2      \
	VBROADCASTSD b+40(DI), Y3      \
	VFMADD231PD Y0, Y2, Y12        \
	VFMADD231PD Y1, Y2, Y13        \
	VFMADD231PD Y0, Y3, Y14        \
	VFMADD231PD Y1, Y3, Y15

// func dgemmKernel8x6(kc int, ap, bp, acc []float64)
TEXT ·dgemmKernel8x6(SB), NOSPLIT, $0-80
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ acc_base+56(FP), DX
	GEMM_ZERO
	MOVQ CX, BX
	SHRQ $1, BX
	JZ   dtail

dloop2:
	DSTEP(0, 0)
	DSTEP(64, 48)
	ADDQ $128, SI
	ADDQ $96, DI
	DECQ BX
	JNZ  dloop2

dtail:
	TESTQ $1, CX
	JZ    dstore
	DSTEP(0, 0)

dstore:
	GEMM_STORE
	VZEROUPPER
	RET

// One kc step of the float32 kernel: A column at a(SI), B row at b(DI).
#define SSTEP(a, b) \
	VMOVUPS a(SI), Y0              \
	VMOVUPS a+32(SI), Y1           \
	VBROADCASTSS b(DI), Y2         \
	VBROADCASTSS b+4(DI), Y3       \
	VFMADD231PS Y0, Y2, Y4         \
	VFMADD231PS Y1, Y2, Y5         \
	VFMADD231PS Y0, Y3, Y6         \
	VFMADD231PS Y1, Y3, Y7         \
	VBROADCASTSS b+8(DI), Y2       \
	VBROADCASTSS b+12(DI), Y3      \
	VFMADD231PS Y0, Y2, Y8         \
	VFMADD231PS Y1, Y2, Y9         \
	VFMADD231PS Y0, Y3, Y10        \
	VFMADD231PS Y1, Y3, Y11        \
	VBROADCASTSS b+16(DI), Y2      \
	VBROADCASTSS b+20(DI), Y3      \
	VFMADD231PS Y0, Y2, Y12        \
	VFMADD231PS Y1, Y2, Y13        \
	VFMADD231PS Y0, Y3, Y14        \
	VFMADD231PS Y1, Y3, Y15

// func sgemmKernel16x6(kc int, ap, bp, acc []float32)
TEXT ·sgemmKernel16x6(SB), NOSPLIT, $0-80
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ acc_base+56(FP), DX
	GEMM_ZERO
	MOVQ CX, BX
	SHRQ $1, BX
	JZ   stail

sloop2:
	SSTEP(0, 0)
	SSTEP(64, 24)
	ADDQ $128, SI
	ADDQ $48, DI
	DECQ BX
	JNZ  sloop2

stail:
	TESTQ $1, CX
	JZ    sstore
	SSTEP(0, 0)

sstore:
	GEMM_STORE
	VZEROUPPER
	RET

// The GEMV column kernels compute y[i] += x0*c0[i] + x1*c1[i] + x2*c2[i]
// + x3*c3[i] for i < m, where c_j is column j of a (leading dimension lda)
// and m is a multiple of two vectors (8 float64 or 16 float32). Y0..Y3
// hold the broadcast x_j; each step updates 64 bytes of y.

// func dgemvCols4Kernel(m int, x0, x1, x2, x3 float64, a []float64, lda int, y []float64)
TEXT ·dgemvCols4Kernel(SB), NOSPLIT, $0-96
	MOVQ         m+0(FP), CX
	VBROADCASTSD x0+8(FP), Y0
	VBROADCASTSD x1+16(FP), Y1
	VBROADCASTSD x2+24(FP), Y2
	VBROADCASTSD x3+32(FP), Y3
	MOVQ         a_base+40(FP), SI
	MOVQ         lda+64(FP), AX
	SHLQ         $3, AX
	LEAQ         (SI)(AX*1), R8
	LEAQ         (R8)(AX*1), R9
	LEAQ         (R9)(AX*1), R10
	MOVQ         y_base+72(FP), DI
	SHRQ         $3, CX
	JZ           ddone

dgemvloop:
	VMOVUPD     (DI), Y4
	VMOVUPD     32(DI), Y5
	VFMADD231PD (SI), Y0, Y4
	VFMADD231PD 32(SI), Y0, Y5
	VFMADD231PD (R8), Y1, Y4
	VFMADD231PD 32(R8), Y1, Y5
	VFMADD231PD (R9), Y2, Y4
	VFMADD231PD 32(R9), Y2, Y5
	VFMADD231PD (R10), Y3, Y4
	VFMADD231PD 32(R10), Y3, Y5
	VMOVUPD     Y4, (DI)
	VMOVUPD     Y5, 32(DI)
	ADDQ        $64, SI
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, DI
	DECQ        CX
	JNZ         dgemvloop

ddone:
	VZEROUPPER
	RET

// func sgemvCols4Kernel(m int, x0, x1, x2, x3 float32, a []float32, lda int, y []float32)
TEXT ·sgemvCols4Kernel(SB), NOSPLIT, $0-80
	MOVQ         m+0(FP), CX
	VBROADCASTSS x0+8(FP), Y0
	VBROADCASTSS x1+12(FP), Y1
	VBROADCASTSS x2+16(FP), Y2
	VBROADCASTSS x3+20(FP), Y3
	MOVQ         a_base+24(FP), SI
	MOVQ         lda+48(FP), AX
	SHLQ         $2, AX
	LEAQ         (SI)(AX*1), R8
	LEAQ         (R8)(AX*1), R9
	LEAQ         (R9)(AX*1), R10
	MOVQ         y_base+56(FP), DI
	SHRQ         $4, CX
	JZ           sdone

sgemvloop:
	VMOVUPS     (DI), Y4
	VMOVUPS     32(DI), Y5
	VFMADD231PS (SI), Y0, Y4
	VFMADD231PS 32(SI), Y0, Y5
	VFMADD231PS (R8), Y1, Y4
	VFMADD231PS 32(R8), Y1, Y5
	VFMADD231PS (R9), Y2, Y4
	VFMADD231PS 32(R9), Y2, Y5
	VFMADD231PS (R10), Y3, Y4
	VFMADD231PS 32(R10), Y3, Y5
	VMOVUPS     Y4, (DI)
	VMOVUPS     Y5, 32(DI)
	ADDQ        $64, SI
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, DI
	DECQ        CX
	JNZ         sgemvloop

sdone:
	VZEROUPPER
	RET
