package main

import "testing"

// TestFactorLU factors a seeded matrix whose order is not a multiple of
// the panel width, so the last panel is partial, and checks the residual
// and the FLOP accounting of the blocked factorization.
func TestFactorLU(t *testing.T) {
	const n, nb = 200, 32
	a := newMatrix(n)
	orig := a.Clone()
	piv, gemmFlops, otherFlops := factorLU(a, nb)
	if res := residual(orig, a, piv); res > 1e-9 {
		t.Fatalf("residual max|P*A - L*U| = %.3e, want <= 1e-9", res)
	}
	var wantGemm int64
	for j := nb; j < n; j += nb {
		wantGemm += 2 * int64(n-j) * int64(n-j) * nb
	}
	if gemmFlops != wantGemm {
		t.Errorf("trailing GEMM FLOPs = %d, want %d", gemmFlops, wantGemm)
	}
	if otherFlops <= 0 || otherFlops >= gemmFlops {
		t.Errorf("panel and solve FLOPs = %d, want in (0, %d)", otherFlops, gemmFlops)
	}
}
