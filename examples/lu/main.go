// Blocked LU factorization with partial pivoting, built on the
// repository's GEMM — the second application the paper cites to
// motivate non-square GEMM shapes (§III-C): a right-looking LU spends
// nearly all its FLOPs in trailing-matrix GEMM updates of shape
// {m-j, n-j, nb}, a tall-and-skinny-K problem whose offload profile the
// benchmark sweeps directly.
//
// The example factors P·A = L·U, verifies the residual, reports where the
// FLOPs went, and asks the offload models where each paper system would run
// the dominant trailing update.
//
//	go run ./examples/lu [-n 1024] [-nb 64]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"text/tabwriter"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// newMatrix returns the seeded n x n matrix the example factors.
func newMatrix(n int) *matrix.Dense64 {
	a := matrix.NewDense64(n, n)
	a.Fill(matrix.NewRNG(5))
	// Diagonal boost keeps the factorization comfortably away from
	// breakdown without disabling pivoting.
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+2)
	}
	return a
}

func main() {
	log.SetFlags(0)
	n := flag.Int("n", 1024, "matrix size")
	nb := flag.Int("nb", 64, "panel width")
	flag.Parse()

	a := newMatrix(*n)
	orig := a.Clone()

	piv, gemmFlops, panelFlops := factorLU(a, *nb)

	// Residual check: ||P*A - L*U||_max.
	res := residual(orig, a, piv)
	fmt.Printf("factored %dx%d with panel width %d\n", *n, *n, *nb)
	fmt.Printf("residual max|P*A - L*U| = %.3e (inputs O(1))\n", res)
	if res > 1e-9 {
		log.Fatalf("LU residual too large")
	}
	total := gemmFlops + panelFlops
	fmt.Printf("FLOP breakdown: %.1f%% trailing GEMM updates, %.1f%% panel+solve\n\n",
		100*float64(gemmFlops)/float64(total), 100*float64(panelFlops)/float64(total))

	// The dominant kernel: the first trailing update {n-nb, n-nb, nb},
	// re-issued once per panel (n/nb calls of shrinking size; we advise on
	// the first, largest one).
	m1 := *n - *nb
	fmt.Printf("offload advice for the dominant update GEMM {%d, %d, %d} x %d panels:\n", m1, m1, *nb, *n / *nb)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "System\tCPU\tGPU (Once)\tVerdict\n")
	for _, sys := range systems.All() {
		cpu := sys.CPU.GemmSeconds(8, m1, m1, *nb, false, *n / *nb)
		gpu := sys.GPU.GemmSeconds(xfer.TransferOnce, 8, m1, m1, *nb, false, *n / *nb)
		verdict := "CPU"
		if gpu < cpu {
			verdict = "GPU"
		}
		fmt.Fprintf(tw, "%s\t%.2f ms\t%.2f ms\t%s\n", sys.Name, cpu*1e3, gpu*1e3, verdict)
	}
	tw.Flush()
}

// factorLU performs blocked right-looking LU with partial pivoting in
// place: on return a holds L (unit lower, below the diagonal) and U (upper)
// and piv the row swaps. Returns the FLOPs spent in GEMM updates vs
// everything else.
func factorLU(a *matrix.Dense64, nb int) (piv []int, gemmFlops, otherFlops int64) {
	n := a.Rows
	piv = make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for j := 0; j < n; j += nb {
		jb := min(nb, n-j)
		// Unblocked panel factorization with partial pivoting on columns
		// [j, j+jb).
		for c := j; c < j+jb; c++ {
			// Pivot search in column c, rows c..n.
			p := c
			best := math.Abs(a.At(c, c))
			for i := c + 1; i < n; i++ {
				if v := math.Abs(a.At(i, c)); v > best {
					best, p = v, i
				}
			}
			if best == 0 {
				log.Fatal("singular matrix")
			}
			if p != c {
				swapRows(a, c, p)
				piv[c], piv[p] = piv[p], piv[c]
			}
			inv := 1 / a.At(c, c)
			for i := c + 1; i < n; i++ {
				a.Set(i, c, a.At(i, c)*inv)
			}
			// Rank-1 update restricted to the panel.
			for cc := c + 1; cc < j+jb; cc++ {
				acc := a.At(c, cc)
				if acc == 0 {
					continue
				}
				for i := c + 1; i < n; i++ {
					a.Set(i, cc, a.At(i, cc)-a.At(i, c)*acc)
				}
			}
			otherFlops += 2 * int64(n-c) * int64(j+jb-c)
		}
		if j+jb >= n {
			break
		}
		// U12 = L11^-1 * A12 (unit lower triangular solve).
		a11 := a.View(j, j, jb, jb)
		a12 := a.View(j, j+jb, jb, n-j-jb)
		solveUnitLower(a11, a12)
		otherFlops += int64(jb) * int64(jb) * int64(n-j-jb)
		// Trailing update: A22 -= L21 * U12 — the dominant GEMM.
		a21 := a.View(j+jb, j, n-j-jb, jb)
		a22 := a.View(j+jb, j+jb, n-j-jb, n-j-jb)
		blas.OptDgemm(blas.NoTrans, blas.NoTrans, n-j-jb, n-j-jb, jb, -1,
			a21.Data, a21.Ld, a12.Data, a12.Ld, 1, a22.Data, a22.Ld)
		gemmFlops += 2 * int64(n-j-jb) * int64(n-j-jb) * int64(jb)
	}
	return piv, gemmFlops, otherFlops
}

// solveUnitLower overwrites b with L⁻¹·b by forward substitution, one
// column of b at a time, where L is the unit lower triangle of l: the
// diagonal and the upper triangle of l are not read.
func solveUnitLower(l, b *matrix.Dense64) {
	for c := 0; c < b.Cols; c++ {
		col := b.Col(c)
		for k, x := range col {
			for i := k + 1; i < len(col); i++ {
				col[i] -= l.At(i, k) * x
			}
		}
	}
}

func swapRows(a *matrix.Dense64, r1, r2 int) {
	for j := 0; j < a.Cols; j++ {
		v1, v2 := a.At(r1, j), a.At(r2, j)
		a.Set(r1, j, v2)
		a.Set(r2, j, v1)
	}
}

// residual computes max|P*A - L*U| by reconstructing L*U.
func residual(orig, lu *matrix.Dense64, piv []int) float64 {
	n := orig.Rows
	l := matrix.NewDense64(n, n)
	u := matrix.NewDense64(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			switch {
			case i > j:
				l.Set(i, j, lu.At(i, j))
			case i == j:
				l.Set(i, j, 1)
				u.Set(i, j, lu.At(i, j))
			default:
				u.Set(i, j, lu.At(i, j))
			}
		}
	}
	rec := matrix.NewDense64(n, n)
	blas.OptDgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, l.Data, l.Ld, u.Data, u.Ld, 0, rec.Data, rec.Ld)
	var maxDiff float64
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			d := math.Abs(rec.At(i, j) - orig.At(piv[i], j))
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	return maxDiff
}
