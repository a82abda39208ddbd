package blas

import "repro/internal/parallel"

// Batched GEMM, the paper's first future-work item (§V): many small
// independent GEMMs issued as one call so the fixed per-call overhead is
// paid once and the batch can be spread across all workers even when each
// individual problem is too small to parallelise internally.

// gemmBatchItem describes one GEMM of a batch. All matrices are
// column-major; semantics per item match RefSgemm/RefDgemm.
type gemmBatchItem[T float] struct {
	TransA, TransB Transpose
	M, N, K        int
	Alpha          T
	A              []T
	Lda            int
	B              []T
	Ldb            int
	Beta           T
	C              []T
	Ldc            int
}

// DgemmBatchItem describes one GEMM of a float64 batch.
type DgemmBatchItem = gemmBatchItem[float64]

// SgemmBatchItem describes one GEMM of a float32 batch.
type SgemmBatchItem = gemmBatchItem[float32]

// DgemmBatched executes every GEMM in the batch. Items are validated before
// any is executed, so a malformed item panics without partial updates.
// Items are distributed across the worker pool one-at-a-time (guided), and
// each item is computed serially to avoid nested parallelism.
func DgemmBatched(items []DgemmBatchItem) {
	checkGemmBatch(items)
	gemmBatched(prec64, items)
}

// SgemmBatched executes every GEMM in the float32 batch; see DgemmBatched.
func SgemmBatched(items []SgemmBatchItem) {
	checkGemmBatch(items)
	gemmBatched(prec32, items)
}

// DgemmStridedBatched runs batchCount GEMMs of identical shape whose
// operands sit at fixed strides within contiguous buffers, mirroring
// cublasDgemmStridedBatched.
func DgemmStridedBatched(transA, transB Transpose, m, n, k int, alpha float64,
	a []float64, lda int, strideA int,
	b []float64, ldb int, strideB int,
	beta float64, c []float64, ldc int, strideC int, batchCount int) {
	checkGemm(transA, transB, m, n, k, lda, ldb, ldc)
	checkStridedBatch(strideA, strideB, strideC, batchCount)
	gemmStridedBatched(prec64, transA, transB, m, n, k, alpha, a, lda, strideA, b, ldb, strideB, beta, c, ldc, strideC, batchCount)
}

// SgemmStridedBatched runs batchCount float32 GEMMs of identical shape at
// fixed strides; see DgemmStridedBatched.
func SgemmStridedBatched(transA, transB Transpose, m, n, k int, alpha float32,
	a []float32, lda int, strideA int,
	b []float32, ldb int, strideB int,
	beta float32, c []float32, ldc int, strideC int, batchCount int) {
	checkGemm(transA, transB, m, n, k, lda, ldb, ldc)
	checkStridedBatch(strideA, strideB, strideC, batchCount)
	gemmStridedBatched(prec32, transA, transB, m, n, k, alpha, a, lda, strideA, b, ldb, strideB, beta, c, ldc, strideC, batchCount)
}

// checkGemmBatch validates every item of a batch with checkGemm.
func checkGemmBatch[T float](items []gemmBatchItem[T]) {
	for i := range items {
		it := &items[i]
		checkGemm(it.TransA, it.TransB, it.M, it.N, it.K, it.Lda, it.Ldb, it.Ldc)
	}
}

// gemmBatched runs a validated batch.
func gemmBatched[T float](pr *precision[T], items []gemmBatchItem[T]) {
	p := getPool()
	run := func(it *gemmBatchItem[T]) {
		if scaleC(it.M, it.N, it.K, it.Alpha, it.Beta, it.C, it.Ldc) {
			gemmSerial(pr, it.TransA, it.TransB, it.M, it.N, it.K, it.Alpha, it.A, it.Lda, it.B, it.Ldb, it.Beta, it.C, it.Ldc)
		}
	}
	if p.Workers() == 1 || len(items) == 1 {
		for i := range items {
			run(&items[i])
		}
		return
	}
	p.ForChunked(len(items), 1, func(_ int, r parallel.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			run(&items[i])
		}
	})
}

// gemmStridedBatched expands a validated strided batch into items.
func gemmStridedBatched[T float](pr *precision[T], transA, transB Transpose, m, n, k int, alpha T,
	a []T, lda, strideA int, b []T, ldb, strideB int, beta T, c []T, ldc, strideC, batchCount int) {
	items := make([]gemmBatchItem[T], batchCount)
	for i := range items {
		items[i] = gemmBatchItem[T]{
			TransA: transA, TransB: transB, M: m, N: n, K: k,
			Alpha: alpha, A: a[i*strideA:], Lda: lda,
			B: b[i*strideB:], Ldb: ldb,
			Beta: beta, C: c[i*strideC:], Ldc: ldc,
		}
	}
	gemmBatched(pr, items)
}
