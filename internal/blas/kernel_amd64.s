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

// The AVX-512 pack leaves lay out full-width panels for the AVX-512
// micro-kernels; the Go wrappers hand everything else to the generic
// packers. Panel p of the packed block starts kc*w elements after panel
// p-1, and row l of a panel w elements after row l-1.

// PACK_RUNS copies n panels of kc rows, each row one 128-byte run (32
// float32 or 16 float64) read ld bytes after the run of the row before:
// two ZMM loads and two stores per row. Rows are contiguous in the
// packed block, so DI only moves forward. CX = n, SI = src, AX = ld in
// bytes, DI = dst, BX = kc.
#define PACK_RUNS(label, rowLabel) \
label:                           \
	MOVQ    SI, R8               \
	MOVQ    BX, DX               \
rowLabel:                        \
	VMOVUPS (R8), Z0             \
	VMOVUPS 64(R8), Z1           \
	VMOVUPS Z0, (DI)             \
	VMOVUPS Z1, 64(DI)           \
	ADDQ    AX, R8               \
	ADDQ    $128, DI             \
	DECQ    DX                   \
	JNZ     rowLabel             \
	ADDQ    $128, SI             \
	DECQ    CX                   \
	JNZ     label                \
	VZEROUPPER                   \
	RET

// func spackRuns32(n, kc int, src []float32, ld int, dst []float32)
TEXT ·spackRuns32(SB), NOSPLIT, $0-72
	MOVQ n+0(FP), CX
	MOVQ src_base+16(FP), SI
	MOVQ ld+40(FP), AX
	SHLQ $2, AX
	MOVQ dst_base+48(FP), DI
	MOVQ kc+8(FP), BX
	PACK_RUNS(sruns, srunsrow)

// func dpackRuns16(n, kc int, src []float64, ld int, dst []float64)
TEXT ·dpackRuns16(SB), NOSPLIT, $0-72
	MOVQ n+0(FP), CX
	MOVQ src_base+16(FP), SI
	MOVQ ld+40(FP), AX
	SHLQ $3, AX
	MOVQ dst_base+48(FP), DI
	MOVQ kc+8(FP), BX
	PACK_RUNS(druns, drunsrow)

// The column leaves transpose 12 source columns into a 12-wide panel,
// one 64-byte block of each column at a time: 16 float32 or 8 float64
// rows of the panel, 768 bytes of it in both precisions. Column i of the
// panel is read at R8 + i*ld (AX = ld and BX = 3*ld in bytes; R10 and R11
// point at columns 4 and 8) into Z(i). The rows are packed into twelve
// whole vectors and written at R9: twelve full stores, cache-line
// aligned when the packed block is, in place of sixteen 48-byte row
// stores, half of which straddle a cache line.

// LOAD12 loads the next 64 bytes of each of the 12 columns into Z0..Z11.
#define LOAD12 \
	LEAQ    (R8)(AX*4), R10   \
	LEAQ    (R10)(AX*4), R11  \
	VMOVUPS (R8), Z0          \
	VMOVUPS (R8)(AX*1), Z1    \
	VMOVUPS (R8)(AX*2), Z2    \
	VMOVUPS (R8)(BX*1), Z3    \
	VMOVUPS (R10), Z4         \
	VMOVUPS (R10)(AX*1), Z5   \
	VMOVUPS (R10)(AX*2), Z6   \
	VMOVUPS (R10)(BX*1), Z7   \
	VMOVUPS (R11), Z8         \
	VMOVUPS (R11)(AX*1), Z9   \
	VMOVUPS (R11)(AX*2), Z10  \
	VMOVUPS (R11)(BX*1), Z11

// SQUAD interleaves four float32 columns a0..a3 so that, afterwards, each
// 128-bit lane q of a(e) holds element 4q+e of the four columns, in
// column order.
#define SQUAD(a0, a1, a2, a3, t0, t1, t2, t3) \
	VUNPCKLPS a1, a0, t0 \
	VUNPCKHPS a1, a0, t1 \
	VUNPCKLPS a3, a2, t2 \
	VUNPCKHPS a3, a2, t3 \
	VUNPCKLPD t2, t0, a0 \
	VUNPCKHPD t2, t0, a1 \
	VUNPCKLPD t3, t1, a2 \
	VUNPCKHPD t3, t1, a3

// SROWS4 gathers lane q of u0, u1 and u2 (columns 0-3, 4-7 and 8-11, as
// SQUAD left them for element e) into lanes 0-2 of panel row 4q+e, in r0,
// r4, r8 and r12 for q = 0..3. It clobbers u1 and Z28.
#define SROWS4(u0, u1, u2, r0, r4, r8, r12) \
	VSHUFF32X4 $0x44, u1, u0, Z28 \
	VSHUFF32X4 $0xEE, u1, u0, u1  \
	VSHUFF32X4 $0x08, u2, Z28, r0 \
	VSHUFF32X4 $0x1D, u2, Z28, r4 \
	VSHUFF32X4 $0x28, u2, u1, r8  \
	VSHUFF32X4 $0x3D, u2, u1, r12

// SPACK4 stores the four 12-element rows in lanes 0-2 of r0..r3 as the
// three vectors they fill, at off(R9); x1 and x3 are the low 128 bits of
// r1 and r3. It clobbers r0..r2.
#define SPACK4(r0, r1, r2, r3, x1, x3, off) \
	VINSERTF32X4 $3, x1, r0, r0   \
	VSHUFF32X4   $0x49, r2, r1, r1 \
	VSHUFF32X4   $0x92, r3, r2, r2 \
	VINSERTF32X4 $1, x3, r2, r2   \
	VMOVUPS      r0, off(R9)      \
	VMOVUPS      r1, off+64(R9)   \
	VMOVUPS      r2, off+128(R9)

// DTRANS8 transposes the 8x8 float64 block whose columns are a0..a7 into
// rows o0..o7, with Z12..Z23 as scratch.
#define DTRANS8(a0, a1, a2, a3, a4, a5, a6, a7, o0, o1, o2, o3, o4, o5, o6, o7) \
	VUNPCKLPD  a1, a0, Z12        \
	VUNPCKHPD  a1, a0, Z13        \
	VUNPCKLPD  a3, a2, Z14        \
	VUNPCKHPD  a3, a2, Z15        \
	VUNPCKLPD  a5, a4, Z16        \
	VUNPCKHPD  a5, a4, Z17        \
	VUNPCKLPD  a7, a6, Z18        \
	VUNPCKHPD  a7, a6, Z19        \
	VSHUFF64X2 $0x44, Z14, Z12, Z20 \
	VSHUFF64X2 $0xEE, Z14, Z12, Z21 \
	VSHUFF64X2 $0x44, Z18, Z16, Z22 \
	VSHUFF64X2 $0xEE, Z18, Z16, Z23 \
	VSHUFF64X2 $0x88, Z22, Z20, o0  \
	VSHUFF64X2 $0xDD, Z22, Z20, o2  \
	VSHUFF64X2 $0x88, Z23, Z21, o4  \
	VSHUFF64X2 $0xDD, Z23, Z21, o6  \
	VSHUFF64X2 $0x44, Z15, Z13, Z20 \
	VSHUFF64X2 $0xEE, Z15, Z13, Z21 \
	VSHUFF64X2 $0x44, Z19, Z17, Z22 \
	VSHUFF64X2 $0xEE, Z19, Z17, Z23 \
	VSHUFF64X2 $0x88, Z22, Z20, o1  \
	VSHUFF64X2 $0xDD, Z22, Z20, o3  \
	VSHUFF64X2 $0x88, Z23, Z21, o5  \
	VSHUFF64X2 $0xDD, Z23, Z21, o7

// DPACK2 stores two 12-element float64 rows, columns 0-7 in lo0 and lo1
// and columns 8-11 in the low halves of hi0 and hi1, as the three vectors
// they fill, at off(R9). It clobbers hi0 and lo1.
#define DPACK2(lo0, hi0, lo1, hi1, off) \
	VSHUFF64X2 $0x44, lo1, hi0, hi0 \
	VSHUFF64X2 $0x4E, hi1, lo1, lo1 \
	VMOVUPD    lo0, off(R9)         \
	VMOVUPD    hi0, off+64(R9)      \
	VMOVUPD    lo1, off+128(R9)

// COLS12_PANELS runs body over R13 blocks of each of n panels: CX = n,
// SI = column 0 of the first panel, DI = its packed rows, R12 = the
// packed panel size kc*12 in bytes. The next panel's columns start
// 12*ld bytes on.
#define COLS12_PANELS(label, blockLabel, body) \
label:                              \
	MOVQ SI, R8                     \
	MOVQ DI, R9                     \
	MOVQ R13, DX                    \
blockLabel:                         \
	LOAD12                          \
	body                            \
	ADDQ $64, R8                    \
	ADDQ $768, R9                   \
	DECQ DX                         \
	JNZ  blockLabel                 \
	LEAQ (SI)(AX*8), SI             \
	LEAQ (SI)(AX*4), SI             \
	ADDQ R12, DI                    \
	DECQ CX                         \
	JNZ  label                      \
	VZEROUPPER                      \
	RET

// SBLOCK packs 16 float32 rows: row r ends up in Z(12+r).
#define SBLOCK \
	SQUAD(Z0, Z1, Z2, Z3, Z12, Z13, Z14, Z15)      \
	SQUAD(Z4, Z5, Z6, Z7, Z16, Z17, Z18, Z19)      \
	SQUAD(Z8, Z9, Z10, Z11, Z20, Z21, Z22, Z23)    \
	SROWS4(Z0, Z4, Z8, Z12, Z16, Z20, Z24)         \
	SROWS4(Z1, Z5, Z9, Z13, Z17, Z21, Z25)         \
	SROWS4(Z2, Z6, Z10, Z14, Z18, Z22, Z26)        \
	SROWS4(Z3, Z7, Z11, Z15, Z19, Z23, Z27)        \
	SPACK4(Z12, Z13, Z14, Z15, X13, X15, 0)        \
	SPACK4(Z16, Z17, Z18, Z19, X17, X19, 192)      \
	SPACK4(Z20, Z21, Z22, Z23, X21, X23, 384)      \
	SPACK4(Z24, Z25, Z26, Z27, X25, X27, 576)

// DBLOCK packs 8 float64 rows: columns 0-7 of row r in Z(24+r), columns
// 8-11 in Z(r); the second DTRANS8 repeats columns 8-11 in place of the
// four it lacks.
#define DBLOCK \
	DTRANS8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31) \
	DTRANS8(Z8, Z9, Z10, Z11, Z8, Z9, Z10, Z11, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)     \
	DPACK2(Z24, Z0, Z25, Z1, 0)                                                     \
	DPACK2(Z26, Z2, Z27, Z3, 192)                                                   \
	DPACK2(Z28, Z4, Z29, Z5, 384)                                                   \
	DPACK2(Z30, Z6, Z31, Z7, 576)

// func spackCols12(n, kb, kc int, src []float32, ld int, dst []float32)
TEXT ·spackCols12(SB), NOSPLIT, $0-80
	MOVQ  n+0(FP), CX
	MOVQ  src_base+24(FP), SI
	MOVQ  ld+48(FP), AX
	SHLQ  $2, AX
	LEAQ  (AX)(AX*2), BX
	MOVQ  dst_base+56(FP), DI
	MOVQ  kc+16(FP), R12
	IMULQ $48, R12
	MOVQ  kb+8(FP), R13
	SHRQ  $4, R13
	COLS12_PANELS(scols, scolsblock, SBLOCK)

// func dpackCols12(n, kb, kc int, src []float64, ld int, dst []float64)
TEXT ·dpackCols12(SB), NOSPLIT, $0-80
	MOVQ  n+0(FP), CX
	MOVQ  src_base+24(FP), SI
	MOVQ  ld+48(FP), AX
	SHLQ  $3, AX
	LEAQ  (AX)(AX*2), BX
	MOVQ  dst_base+56(FP), DI
	MOVQ  kc+16(FP), R12
	IMULQ $96, R12
	MOVQ  kb+8(FP), R13
	SHRQ  $3, R13
	COLS12_PANELS(dcols, dcolsblock, DBLOCK)
