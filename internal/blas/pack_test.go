package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// packPanels is the scalar packer the descriptors' pack leaves replaced,
// kept as their oracle. It packs the cnt x kc operand block at src into
// w-wide panels: element (i, l) of the block goes to
// dst[(i/w)*kc*w + l*w + i%w], and the panel slots past cnt are zeroed.
// The block holds element (i, l) at src[i + l*ld] when runs is set and at
// src[l + i*ld] otherwise.
func packPanels[T float](runs bool, src []T, ld, cnt, kc, w int, dst []T) {
	for i0 := 0; i0 < cnt; i0 += w {
		panel := dst[i0*kc : i0*kc+kc*w]
		width := min(w, cnt-i0)
		if runs {
			for l := 0; l < kc; l++ {
				row := panel[l*w : l*w+w]
				copy(row, src[i0+l*ld:i0+l*ld+width])
				clear(row[width:])
			}
			continue
		}
		for i := 0; i < width; i++ {
			col := src[(i0+i)*ld : (i0+i)*ld+kc]
			for l, v := range col {
				panel[l*w+i] = v
			}
		}
		for i := width; i < w; i++ {
			for l := 0; l < kc; l++ {
				panel[l*w+i] = 0
			}
		}
	}
}

// TestPackLeavesMatchOracle compares every descriptor's pack leaves,
// bit for bit, with packPanels: both layouts at both of the descriptor's
// panel widths, every block width from 1 to three panels (so each edge
// panel width occurs, alone and after full panels), kc from 1 to the
// descriptor's kc, a padded leading dimension, and a destination
// pre-filled with NaN so that every slot the packer owns must be written.
func TestPackLeavesMatchOracle(t *testing.T) {
	ks32, ks64 := testKernels()
	for _, k := range ks32 {
		t.Run(k.name, func(t *testing.T) { checkPackLeaves(t, k.pr) })
	}
	for _, k := range ks64 {
		t.Run(k.name, func(t *testing.T) { checkPackLeaves(t, k.pr) })
	}
}

func checkPackLeaves[T float](t *testing.T, pr *precision[T]) {
	r := rand.New(rand.NewSource(int64(pr.mr*100 + pr.nr)))
	leaves := []struct {
		name string
		runs bool
		leaf func(src []T, ld, cnt, kc, w int, dst []T)
	}{{"runs", true, pr.packRuns}, {"cols", false, pr.packCols}}
	nan := T(math.NaN())
	for _, lv := range leaves {
		for _, w := range []int{pr.mr, pr.nr} {
			for _, kc := range []int{1, 2, 7, 17, 33, pr.kc} {
				for cnt := 1; cnt <= 3*w; cnt++ {
					// The block is cnt x kc; its source extent along the
					// leading dimension is cnt (runs) or kc (columns),
					// padded by 3.
					rows, cols := cnt, kc
					if !lv.runs {
						rows, cols = kc, cnt
					}
					ld := rows + 3
					src := randVec[T](r, ld*(cols-1)+rows)
					panels := (cnt + w - 1) / w
					want := make([]T, panels*kc*w+5)
					got := make([]T, len(want))
					for i := range want {
						want[i], got[i] = nan, nan
					}
					packPanels(lv.runs, src, ld, cnt, kc, w, want)
					lv.leaf(src, ld, cnt, kc, w, got)
					for i := range want {
						if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
							t.Fatalf("%s w=%d kc=%d cnt=%d ld=%d: slot %d = %v, want %v", lv.name, w, kc, cnt, ld, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestGemmMatchesOraclePacking runs the live benchmark's GEMM shapes on
// every descriptor, at one and two threads, and requires the result to
// be bit-identical to gemmSerial on a copy of the descriptor whose pack
// leaves are the scalar oracle: packing only moves elements, so any
// difference is a packing fault. Under the race detector, where the
// instrumented portable kernels take minutes on the 1024^3 shape, it runs
// the active descriptors alone: their two-thread calls share packing
// buffers, and TestPackLeavesMatchOracle still covers every descriptor's
// leaves.
func TestGemmMatchesOraclePacking(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1024^3 GEMMs")
	}
	old := Threads()
	t.Cleanup(func() { SetThreads(old) })
	ks32, ks64 := testKernels()
	if raceEnabled {
		ks32, ks64 = ks32[:1], ks64[:1]
	}
	for _, threads := range []int{1, 2} {
		SetThreads(threads)
		for _, k := range ks32 {
			t.Run(fmt.Sprintf("threads=%d/%s", threads, k.name), func(t *testing.T) { checkOraclePacking(t, k.pr) })
		}
		for _, k := range ks64 {
			t.Run(fmt.Sprintf("threads=%d/%s", threads, k.name), func(t *testing.T) { checkOraclePacking(t, k.pr) })
		}
	}
}

// liveShapes are the GEMM shapes of the live-blas benchmark workload.
var liveShapes = []struct {
	name    string
	m, n, k int
}{
	{"square-64", 64, 64, 64},
	{"square-256", 256, 256, 256},
	{"square-1024", 1024, 1024, 1024},
	{"thin_k32", 2048, 2048, 32},
	{"tall_k_16m", 128, 128, 2048},
}

func checkOraclePacking[T float](t *testing.T, pr *precision[T]) {
	oracle := *pr
	oracle.packRuns = func(src []T, ld, cnt, kc, w int, dst []T) { packPanels(true, src, ld, cnt, kc, w, dst) }
	oracle.packCols = func(src []T, ld, cnt, kc, w int, dst []T) { packPanels(false, src, ld, cnt, kc, w, dst) }
	oracle.packs = new(packBuffers[T])
	r := rand.New(rand.NewSource(31))
	for _, sh := range liveShapes {
		a, b := randVec[T](r, sh.m*sh.k), randVec[T](r, sh.k*sh.n)
		got, want := make([]T, sh.m*sh.n), make([]T, sh.m*sh.n)
		checkGemm(NoTrans, NoTrans, sh.m, sh.n, sh.k, sh.m, sh.k, sh.m)
		gemm(pr, NoTrans, NoTrans, sh.m, sh.n, sh.k, 1, a, sh.m, b, sh.k, 0, got, sh.m)
		gemmSerial(&oracle, NoTrans, NoTrans, sh.m, sh.n, sh.k, 1, a, sh.m, b, sh.k, 0, want, sh.m)
		for i := range want {
			if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
				t.Fatalf("%s: C[%d] = %v, want %v from oracle packing", sh.name, i, got[i], want[i])
			}
		}
	}
}
