package main

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/matrix"
)

func loadGolden(t *testing.T) golden {
	t.Helper()
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGoldenCoversTheGridAndItsDigest(t *testing.T) {
	g := loadGolden(t)
	grid := paperGrid()
	if len(grid) != 480 || len(g.Thresholds) != len(grid) {
		t.Fatalf("grid has %d cells, golden %d; want 480 each", len(grid), len(g.Thresholds))
	}
	for _, c := range grid {
		if _, ok := g.Thresholds[c.key()]; !ok {
			t.Fatalf("golden has no entry for %s", c.key())
		}
	}
	if got := thresholdDigest(g.Thresholds); got != g.Digest {
		t.Fatalf("golden digest %s does not cover its thresholds (%s)", g.Digest, got)
	}
}

func TestPassCheckCountsWrongSweeps(t *testing.T) {
	g := loadGolden(t)
	pass := func() map[string]string {
		m := make(map[string]string, len(g.Thresholds))
		for k, v := range g.Thresholds {
			m[k] = v
		}
		return m
	}
	if n := passCheck(g, pass()); n != 0 {
		t.Fatalf("an exact pass failed %d sweeps", n)
	}
	wrong := pass()
	wrong["DAWN|GEMM|square|S|i=8|roofline"] = "Once={1, 1, 1};Always=—;USM=—"
	if n := passCheck(g, wrong); n != 1 {
		t.Errorf("one wrong verdict failed %d sweeps, want 1", n)
	}
	partial := map[string]string{"DAWN|GEMM|square|S|i=8|roofline": g.Thresholds["DAWN|GEMM|square|S|i=8|roofline"]}
	if n := passCheck(g, partial); n != 0 {
		t.Errorf("a correct partial pass failed %d sweeps", n)
	}
	corrupt := g
	corrupt.Digest = "0" + g.Digest[1:]
	if n := passCheck(corrupt, pass()); n != len(g.Thresholds) {
		t.Errorf("a corrupted golden digest failed %d sweeps, want all %d", n, len(g.Thresholds))
	}
}

func TestChecksumGateCatchesAWrongOutput(t *testing.T) {
	rng := matrix.NewRNG(1)
	var filled float64
	fill := func(rows, cols int, rng *matrix.RNG) []float32 {
		filled++
		return f32Kernels.fill(rows, cols, rng)
	}
	for _, s := range []caseShape{
		{name: "gemm", m: 48, n: 40, k: 32},
		{name: "gemv", gemv: true, m: 96, n: 80},
	} {
		c := newCase(f32Kernels, s, rng, fill)
		// Never called: the output is still zero, which the reference
		// comparison must reject.
		if opt, ref := c.check(); matrix.ChecksumsMatch(opt, ref) {
			t.Errorf("%s: an output the kernel never wrote passed (%g vs %g)", s.name, opt, ref)
		}
		c.call()
		if opt, ref := c.check(); !matrix.ChecksumsMatch(opt, ref) {
			t.Errorf("%s: the optimized kernel's checksum %g differs from the reference %g", s.name, opt, ref)
		}
	}
	reduced := newCase(f64Kernels, caseShape{name: "big", m: 96, n: 96, k: 96, check: 40}, matrix.NewRNG(2), f64Kernels.fill)
	if opt, ref := reduced.check(); !matrix.ChecksumsMatch(opt, ref) || opt == 0 {
		t.Errorf("reduced check: %g vs %g", opt, ref)
	}
	if filled != 4 {
		t.Errorf("the cases filled %v operands through the matrix layer, want 4", filled)
	}
}

func TestPromSeriesAndHistogramQuantile(t *testing.T) {
	text := `# HELP blob_admission_seconds Admission decision latency (grant or shed).
# TYPE blob_admission_seconds histogram
blob_admission_seconds_bucket{le="0.0005"} 80
blob_admission_seconds_bucket{le="0.001"} 95
blob_admission_seconds_bucket{le="0.005"} 100
blob_admission_seconds_bucket{le="+Inf"} 100
blob_admission_seconds_sum 0.02
blob_admission_seconds_count 100
blob_gateway_reroutes_total 3
`
	after := promSeries(text, "blob_admission_seconds_bucket")
	if len(after) != 4 || after["0.001"] != 95 || after["+Inf"] != 100 {
		t.Fatalf("buckets %v", after)
	}
	if got := promSeries(text, "blob_gateway_reroutes_total")[""]; got != 3 {
		t.Errorf("reroutes %v, want 3", got)
	}
	if got := histQuantileMs(map[string]float64{}, after, 0.9); got != 1 {
		t.Errorf("p90 of 80/15/5 over 0.5/1/5 ms buckets = %v ms, want 1", got)
	}
	// Only the counts between the snapshots count: here all 20 new
	// observations landed in the 5 ms bucket.
	before := map[string]float64{"0.0005": 80, "0.001": 95, "0.005": 80, "+Inf": 80}
	if got := histQuantileMs(before, after, 0.5); got != 5 {
		t.Errorf("p50 of the window = %v ms, want 5", got)
	}
	if got := histQuantileMs(after, after, 0.9); got != 0 || math.IsNaN(got) {
		t.Errorf("an empty window = %v, want 0", got)
	}
}
