#include "textflag.h"

// AVX2/FMA and AVX-512 leaves of the GEMM and GEMV drivers, and the CPU
// probe that decides which may run. None of these bounds-checks anything: the
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

// Every GEMM micro-kernel has the signature
//
//	func(kc int, alpha T, ap, bp []T, beta T, c []T, ldc int)
//
// and computes C = alpha*A*B + beta*C on one mr x nr tile of C, column
// j of which starts ldc elements after column j-1. The kc loop sums A*B
// in registers; then each column of C is written once. With beta == 0
// (either sign) C is not read, so it may hold anything, NaN included.
// Each column of the tile is two vectors, 64 bytes (YMM) or 128 bytes
// (ZMM), for both precisions. The stores keep the column stride ldc*size
// in R8 and three times it in R9, and move DX on by four columns after
// every four.

// STORE_BETA0 sets one C column (two vectors at lo and hi) to al*acc.
#define STORE_BETA0(MUL, al, v0, v1, lo, hi) \
	MUL     al, v0, v0 \
	MUL     al, v1, v1 \
	VMOVUPS v0, lo     \
	VMOVUPS v1, hi

// STORE_BETA sets one C column to al*acc + be*C.
#define STORE_BETA(MUL, FMA, al, be, v0, v1, lo, hi) \
	MUL     al, v0, v0 \
	MUL     al, v1, v1 \
	FMA     lo, be, v0 \
	FMA     hi, be, v1 \
	VMOVUPS v0, lo     \
	VMOVUPS v1, hi

// STORE4_BETA0 and STORE4_BETA store the four columns at DX (vectors w
// bytes long) and advance DX past them.
#define STORE4_BETA0(MUL, al, w, a0, a1, b0, b1, c0, c1, d0, d1) \
	STORE_BETA0(MUL, al, a0, a1, (DX), w(DX))                   \
	STORE_BETA0(MUL, al, b0, b1, (DX)(R8*1), w(DX)(R8*1))       \
	STORE_BETA0(MUL, al, c0, c1, (DX)(R8*2), w(DX)(R8*2))       \
	STORE_BETA0(MUL, al, d0, d1, (DX)(R9*1), w(DX)(R9*1))       \
	LEAQ (DX)(R8*4), DX

#define STORE4_BETA(MUL, FMA, al, be, w, a0, a1, b0, b1, c0, c1, d0, d1) \
	STORE_BETA(MUL, FMA, al, be, a0, a1, (DX), w(DX))                   \
	STORE_BETA(MUL, FMA, al, be, b0, b1, (DX)(R8*1), w(DX)(R8*1))       \
	STORE_BETA(MUL, FMA, al, be, c0, c1, (DX)(R8*2), w(DX)(R8*2))       \
	STORE_BETA(MUL, FMA, al, be, d0, d1, (DX)(R9*1), w(DX)(R9*1))       \
	LEAQ (DX)(R8*4), DX

// The AVX2/FMA kernels hold the mr x 6 tile in Y4..Y15: column jj of the
// tile is the pair Y(4+2jj), Y(5+2jj). Each step of the kc loop loads
// one packed column of A (mr elements, two vectors) into Y0/Y1,
// broadcasts the six packed elements of B in turn into Y2/Y3, and issues
// twelve FMAs.

#define YMM_ZERO \
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

// YMM_STORE writes the six columns: alpha in Y0, beta in Y1, beta's
// bits in AX.
#define YMM_STORE(MUL, FMA, label) \
	TESTQ AX, AX                                                          \
	JNZ   label                                                           \
	STORE4_BETA0(MUL, Y0, 32, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)           \
	STORE_BETA0(MUL, Y0, Y12, Y13, (DX), 32(DX))                          \
	STORE_BETA0(MUL, Y0, Y14, Y15, (DX)(R8*1), 32(DX)(R8*1))              \
	VZEROUPPER                                                            \
	RET                                                                   \
label:                                                                    \
	STORE4_BETA(MUL, FMA, Y0, Y1, 32, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)   \
	STORE_BETA(MUL, FMA, Y0, Y1, Y12, Y13, (DX), 32(DX))                  \
	STORE_BETA(MUL, FMA, Y0, Y1, Y14, Y15, (DX)(R8*1), 32(DX)(R8*1))      \
	VZEROUPPER                                                            \
	RET

// One kc step of the float64 AVX2 kernel: A column at a(SI), B row at b(DI).
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

// func dgemmKernel8x6(kc int, alpha float64, ap, bp []float64, beta float64, c []float64, ldc int)
TEXT ·dgemmKernel8x6(SB), NOSPLIT, $0-104
	MOVQ kc+0(FP), CX
	MOVQ ap_base+16(FP), SI
	MOVQ bp_base+40(FP), DI
	YMM_ZERO
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
	MOVQ         c_base+72(FP), DX
	MOVQ         ldc+96(FP), R8
	SHLQ         $3, R8
	LEAQ         (R8)(R8*2), R9
	VBROADCASTSD alpha+8(FP), Y0
	VBROADCASTSD beta+64(FP), Y1
	MOVQ         beta+64(FP), AX
	SHLQ         $1, AX
	YMM_STORE(VMULPD, VFMADD231PD, dbeta)

// One kc step of the float32 AVX2 kernel: A column at a(SI), B row at b(DI).
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

// func sgemmKernel16x6(kc int, alpha float32, ap, bp []float32, beta float32, c []float32, ldc int)
TEXT ·sgemmKernel16x6(SB), NOSPLIT, $0-104
	MOVQ kc+0(FP), CX
	MOVQ ap_base+16(FP), SI
	MOVQ bp_base+40(FP), DI
	YMM_ZERO
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
	MOVQ         c_base+72(FP), DX
	MOVQ         ldc+96(FP), R8
	SHLQ         $2, R8
	LEAQ         (R8)(R8*2), R9
	VBROADCASTSS alpha+8(FP), Y0
	VBROADCASTSS beta+64(FP), Y1
	MOVL         beta+64(FP), AX
	SHLL         $1, AX
	YMM_STORE(VMULPS, VFMADD231PS, sbeta)

// The AVX-512 kernels hold the mr x 12 tile in Z8..Z31: column jj of the
// tile is the pair Z(8+2jj), Z(9+2jj). Each step of the kc loop loads one
// packed column of A (mr elements, two vectors) into Z0/Z1, broadcasts
// the twelve packed elements of B in turn into Z2/Z3, and issues 24 FMAs.
// Only AVX512F instructions are used, so zeroing is VPXORD.

#define ZMM_ZERO \
	VPXORD Z8, Z8, Z8    \
	VPXORD Z9, Z9, Z9    \
	VPXORD Z10, Z10, Z10 \
	VPXORD Z11, Z11, Z11 \
	VPXORD Z12, Z12, Z12 \
	VPXORD Z13, Z13, Z13 \
	VPXORD Z14, Z14, Z14 \
	VPXORD Z15, Z15, Z15 \
	VPXORD Z16, Z16, Z16 \
	VPXORD Z17, Z17, Z17 \
	VPXORD Z18, Z18, Z18 \
	VPXORD Z19, Z19, Z19 \
	VPXORD Z20, Z20, Z20 \
	VPXORD Z21, Z21, Z21 \
	VPXORD Z22, Z22, Z22 \
	VPXORD Z23, Z23, Z23 \
	VPXORD Z24, Z24, Z24 \
	VPXORD Z25, Z25, Z25 \
	VPXORD Z26, Z26, Z26 \
	VPXORD Z27, Z27, Z27 \
	VPXORD Z28, Z28, Z28 \
	VPXORD Z29, Z29, Z29 \
	VPXORD Z30, Z30, Z30 \
	VPXORD Z31, Z31, Z31

// ZMM_STORE writes the twelve columns: alpha in Z0, beta in Z1, beta's
// bits in AX.
#define ZMM_STORE(MUL, FMA, label) \
	TESTQ AX, AX                                                                \
	JNZ   label                                                                 \
	STORE4_BETA0(MUL, Z0, 64, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)             \
	STORE4_BETA0(MUL, Z0, 64, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)           \
	STORE4_BETA0(MUL, Z0, 64, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31)           \
	VZEROUPPER                                                                  \
	RET                                                                         \
label:                                                                          \
	STORE4_BETA(MUL, FMA, Z0, Z1, 64, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)     \
	STORE4_BETA(MUL, FMA, Z0, Z1, 64, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)   \
	STORE4_BETA(MUL, FMA, Z0, Z1, 64, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31)   \
	VZEROUPPER                                                                  \
	RET

// ZFMA2 adds the A column in Z0/Z1 times the broadcast in z to the
// column pair c0, c1.
#define ZFMA2(FMA, z, c0, c1) \
	FMA Z0, z, c0 \
	FMA Z1, z, c1

// One kc step of an AVX-512 kernel: A column at a(SI), B row at b(DI),
// B elements size bytes apart.
#define ZSTEP(BCAST, FMA, a, b, size) \
	VMOVUPS a(SI), Z0                \
	VMOVUPS a+64(SI), Z1             \
	BCAST   b(DI), Z2                \
	BCAST   b+size(DI), Z3           \
	ZFMA2(FMA, Z2, Z8, Z9)           \
	ZFMA2(FMA, Z3, Z10, Z11)         \
	BCAST   b+2*size(DI), Z2         \
	BCAST   b+3*size(DI), Z3         \
	ZFMA2(FMA, Z2, Z12, Z13)         \
	ZFMA2(FMA, Z3, Z14, Z15)         \
	BCAST   b+4*size(DI), Z2         \
	BCAST   b+5*size(DI), Z3         \
	ZFMA2(FMA, Z2, Z16, Z17)         \
	ZFMA2(FMA, Z3, Z18, Z19)         \
	BCAST   b+6*size(DI), Z2         \
	BCAST   b+7*size(DI), Z3         \
	ZFMA2(FMA, Z2, Z20, Z21)         \
	ZFMA2(FMA, Z3, Z22, Z23)         \
	BCAST   b+8*size(DI), Z2         \
	BCAST   b+9*size(DI), Z3         \
	ZFMA2(FMA, Z2, Z24, Z25)         \
	ZFMA2(FMA, Z3, Z26, Z27)         \
	BCAST   b+10*size(DI), Z2        \
	BCAST   b+11*size(DI), Z3        \
	ZFMA2(FMA, Z2, Z28, Z29)         \
	ZFMA2(FMA, Z3, Z30, Z31)

// func dgemmKernel16x12(kc int, alpha float64, ap, bp []float64, beta float64, c []float64, ldc int)
TEXT ·dgemmKernel16x12(SB), NOSPLIT, $0-104
	MOVQ kc+0(FP), CX
	MOVQ ap_base+16(FP), SI
	MOVQ bp_base+40(FP), DI
	ZMM_ZERO
	MOVQ CX, BX
	SHRQ $1, BX
	JZ   zdtail

zdloop2:
	ZSTEP(VBROADCASTSD, VFMADD231PD, 0, 0, 8)
	ZSTEP(VBROADCASTSD, VFMADD231PD, 128, 96, 8)
	ADDQ $256, SI
	ADDQ $192, DI
	DECQ BX
	JNZ  zdloop2

zdtail:
	TESTQ $1, CX
	JZ    zdstore
	ZSTEP(VBROADCASTSD, VFMADD231PD, 0, 0, 8)

zdstore:
	MOVQ         c_base+72(FP), DX
	MOVQ         ldc+96(FP), R8
	SHLQ         $3, R8
	LEAQ         (R8)(R8*2), R9
	VBROADCASTSD alpha+8(FP), Z0
	VBROADCASTSD beta+64(FP), Z1
	MOVQ         beta+64(FP), AX
	SHLQ         $1, AX
	ZMM_STORE(VMULPD, VFMADD231PD, zdbeta)

// func sgemmKernel32x12(kc int, alpha float32, ap, bp []float32, beta float32, c []float32, ldc int)
TEXT ·sgemmKernel32x12(SB), NOSPLIT, $0-104
	MOVQ kc+0(FP), CX
	MOVQ ap_base+16(FP), SI
	MOVQ bp_base+40(FP), DI
	ZMM_ZERO
	MOVQ CX, BX
	SHRQ $1, BX
	JZ   zstail

zsloop2:
	ZSTEP(VBROADCASTSS, VFMADD231PS, 0, 0, 4)
	ZSTEP(VBROADCASTSS, VFMADD231PS, 128, 48, 4)
	ADDQ $256, SI
	ADDQ $96, DI
	DECQ BX
	JNZ  zsloop2

zstail:
	TESTQ $1, CX
	JZ    zsstore
	ZSTEP(VBROADCASTSS, VFMADD231PS, 0, 0, 4)

zsstore:
	MOVQ         c_base+72(FP), DX
	MOVQ         ldc+96(FP), R8
	SHLQ         $2, R8
	LEAQ         (R8)(R8*2), R9
	VBROADCASTSS alpha+8(FP), Z0
	VBROADCASTSS beta+64(FP), Z1
	MOVL         beta+64(FP), AX
	SHLL         $1, AX
	ZMM_STORE(VMULPS, VFMADD231PS, zsbeta)

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
