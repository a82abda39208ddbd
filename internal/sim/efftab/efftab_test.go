package efftab

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testTable() *Table {
	return &Table{
		Schema: Schema,
		Source: "live-blas",
		Series: []Series{
			{Kernel: "gemm", Precision: "f32", Class: "square", Points: []Point{
				{Size: 32, GFlops: 1.0, Eff: 0.25},
				{Size: 128, GFlops: 2.0, Eff: 0.5},
				{Size: 512, GFlops: 4.0, Eff: 1.0},
			}},
			{Kernel: "gemm", Precision: "f32", Class: "tallm", Points: []Point{
				{Size: 64, GFlops: 1.5, Eff: 0.4},
				{Size: 256, GFlops: 3.0, Eff: 0.8},
			}},
			{Kernel: "gemv", Precision: "f64", Class: "square", Points: []Point{
				{Size: 1024, GFlops: 0.5, Eff: 0.9},
			}},
		},
	}
}

func TestValidateAcceptsGoodTable(t *testing.T) {
	if err := testTable().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Table)
		want string
	}{
		{"schema", func(tb *Table) { tb.Schema = "efftab/v0" }, "schema"},
		{"empty", func(tb *Table) { tb.Series = nil }, "no series"},
		{"kernel", func(tb *Table) { tb.Series[0].Kernel = "spmv" }, "unknown kernel"},
		{"precision", func(tb *Table) { tb.Series[0].Precision = "f16" }, "unknown precision"},
		{"class", func(tb *Table) { tb.Series[0].Class = "" }, "empty class"},
		{"dup", func(tb *Table) { tb.Series[1] = tb.Series[0] }, "duplicate"},
		{"nopoints", func(tb *Table) { tb.Series[0].Points = nil }, "no points"},
		{"order", func(tb *Table) { tb.Series[0].Points[1].Size = 32 }, "strictly increasing"},
		{"effzero", func(tb *Table) { tb.Series[0].Points[0].Eff = 0 }, "outside (0, 1]"},
		{"effhigh", func(tb *Table) { tb.Series[0].Points[0].Eff = 1.5 }, "outside (0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := testTable()
			tc.mut(tb)
			err := tb.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestEffSinglePointTable(t *testing.T) {
	tb := testTable()
	// The gemv/f64/square series has exactly one point: every size — below,
	// at, above — must return that point's efficiency.
	for _, size := range []float64{1, 1024, 1 << 20} {
		eff, ok := tb.Eff("gemv", "f64", "square", size)
		if !ok || eff != 0.9 { //blobvet:allow floatcompare -- single-point series: the stored eff is returned verbatim, no arithmetic
			t.Fatalf("Eff(gemv,f64,square,%g) = %g,%v, want 0.9,true", size, eff, ok)
		}
	}
}

func TestEffClampsOutsideGrid(t *testing.T) {
	tb := testTable()
	if eff, ok := tb.Eff("gemm", "f32", "square", 4); !ok || eff != 0.25 { //blobvet:allow floatcompare -- clamped extrapolation returns the grid endpoint verbatim, no arithmetic
		t.Fatalf("below-grid Eff = %g,%v, want first point 0.25", eff, ok)
	}
	if eff, ok := tb.Eff("gemm", "f32", "square", 1e9); !ok || eff != 1.0 {
		t.Fatalf("above-grid Eff = %g,%v, want last point 1.0", eff, ok)
	}
}

func TestEffInterpolatesInLogSize(t *testing.T) {
	tb := testTable()
	// Log-midpoint of 32 and 128 is 64: exactly halfway between the
	// bracketing efficiencies 0.25 and 0.5.
	eff, ok := tb.Eff("gemm", "f32", "square", 64)
	if !ok || math.Abs(eff-0.375) > 1e-12 {
		t.Fatalf("Eff at log-midpoint = %g,%v, want 0.375", eff, ok)
	}
	// Grid points return their exact values.
	if eff, _ := tb.Eff("gemm", "f32", "square", 128); math.Abs(eff-0.5) > 1e-12 {
		t.Fatalf("Eff at grid point = %g, want 0.5", eff)
	}
}

func TestEffMissingPrecisionReportsNotOK(t *testing.T) {
	tb := testTable()
	// No f64 GEMM series exists: the lookup must report !ok so the model
	// falls back to its analytic roofline, not silently borrow f32.
	if eff, ok := tb.Eff("gemm", "f64", "square", 128); ok {
		t.Fatalf("Eff(gemm,f64) = %g,%v, want !ok for missing precision", eff, ok)
	}
	if _, ok := tb.Eff("gemv", "f32", "square", 128); ok {
		t.Fatal("Eff(gemv,f32) reported ok for a precision the table lacks")
	}
}

func TestEffClassFallback(t *testing.T) {
	tb := testTable()
	// Unknown class with a "square" series recorded: fall back to square.
	got, ok := tb.Eff("gemm", "f32", "deepk", 128)
	want, _ := tb.Eff("gemm", "f32", "square", 128)
	if !ok || got != want { //blobvet:allow floatcompare -- class fallback delegates to the same series; equality asserts delegation
		t.Fatalf("deepk fallback = %g,%v, want square's %g", got, ok, want)
	}
	// Table with no square series: fall back to the lexicographically
	// first class for the pair.
	noSq := &Table{Schema: Schema, Source: "live-blas", Series: []Series{
		{Kernel: "gemm", Precision: "f32", Class: "widen", Points: []Point{{Size: 10, GFlops: 1, Eff: 0.5}}},
		{Kernel: "gemm", Precision: "f32", Class: "tallm", Points: []Point{{Size: 10, GFlops: 1, Eff: 0.7}}},
	}}
	if eff, ok := noSq.Eff("gemm", "f32", "deepk", 10); !ok || eff != 0.7 { //blobvet:allow floatcompare -- single-point series: the stored eff is returned verbatim, no arithmetic
		t.Fatalf("no-square fallback = %g,%v, want tallm's 0.7", eff, ok)
	}
}

func TestEffRejectsBadSize(t *testing.T) {
	tb := testTable()
	for _, size := range []float64{0, -3, math.NaN()} {
		if _, ok := tb.Eff("gemm", "f32", "square", size); ok {
			t.Fatalf("Eff with size %g reported ok", size)
		}
	}
}

// TestEffMonotoneBetweenGridPoints is the ISSUE-mandated property test:
// for any series, walking sizes between two adjacent grid points must
// produce efficiencies that move monotonically from one endpoint to the
// other — linear interpolation admits no overshoot or wiggle.
func TestEffMonotoneBetweenGridPoints(t *testing.T) {
	tb := testTable()
	for _, s := range tb.Series {
		for i := 0; i+1 < len(s.Points); i++ {
			a, b := s.Points[i], s.Points[i+1]
			sign := 0.0
			if b.Eff > a.Eff {
				sign = 1
			} else if b.Eff < a.Eff {
				sign = -1
			}
			prev, _ := tb.Eff(s.Kernel, s.Precision, s.Class, a.Size)
			const steps = 64
			for j := 1; j <= steps; j++ {
				f := float64(j) / steps
				size := math.Exp(math.Log(a.Size)*(1-f) + math.Log(b.Size)*f)
				eff, ok := tb.Eff(s.Kernel, s.Precision, s.Class, size)
				if !ok {
					t.Fatalf("%s/%s/%s: !ok inside grid at %g", s.Kernel, s.Precision, s.Class, size)
				}
				if d := (eff - prev) * sign; d < -1e-12 {
					t.Fatalf("%s/%s/%s: non-monotone between %g and %g: eff %g after %g",
						s.Kernel, s.Precision, s.Class, a.Size, b.Size, eff, prev)
				}
				if sign == 0 && math.Abs(eff-a.Eff) > 1e-12 {
					t.Fatalf("%s/%s/%s: flat segment wiggled to %g", s.Kernel, s.Precision, s.Class, eff)
				}
				prev = eff
			}
			if math.Abs(prev-b.Eff) > 1e-12 {
				t.Fatalf("%s/%s/%s: interpolation did not land on endpoint: %g vs %g",
					s.Kernel, s.Precision, s.Class, prev, b.Eff)
			}
		}
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	tb := testTable()
	tb.Host = CurrentHost()
	tb.RefPeakGF = map[string]float64{"f32": 4.0, "f64": 0.56}
	path := filepath.Join(t.TempDir(), "efftab.json")
	if err := tb.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Fingerprint() != tb.Fingerprint() {
		t.Fatal("round-tripped table has a different fingerprint")
	}
	if got.RefPeakGF["f32"] != 4.0 { //blobvet:allow floatcompare -- JSON round trip must preserve bits exactly
		t.Fatalf("RefPeakGF lost in round trip: %v", got.RefPeakGF)
	}
}

func TestLoadRejectsBadFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load(missing) = nil error")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load(bad json) = nil error")
	}
}

func TestFingerprintIgnoresHostAndTime(t *testing.T) {
	a, b := testTable(), testTable()
	b.Host = Host{OS: "plan9", Arch: "riscv64", NumCPU: 1}
	b.CreatedUnix = 1234567890
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on host/timestamp")
	}
	b.Series[0].Points[0].Eff = 0.26
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint ignored a data change")
	}
}

func TestFingerprintIgnoresSeriesOrder(t *testing.T) {
	a, b := testTable(), testTable()
	b.Series[0], b.Series[1] = b.Series[1], b.Series[0]
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on series order")
	}
}

func TestSetFingerprint(t *testing.T) {
	tb := testTable()
	full := (&Set{CPU: tb, GPU: tb}).Fingerprint()
	cpuOnly := (&Set{CPU: tb}).Fingerprint()
	if full == cpuOnly {
		t.Fatal("Set fingerprint ignores the GPU table")
	}
	if (&Set{}).Fingerprint() == "" {
		t.Fatal("empty Set fingerprint is empty")
	}
}

func TestClassifyGemm(t *testing.T) {
	cases := []struct {
		m, n, k int
		want    string
	}{
		{128, 128, 128, "square"},
		{1024, 128, 128, "tallm"},
		{128, 1024, 128, "widen"},
		{128, 128, 1024, "deepk"},
		{512, 128, 128, "tallm"}, // exactly 4x: dominant
		{384, 128, 128, "square"},
		{1024, 1024, 128, "square"}, // two large dims: neither dominates
	}
	for _, tc := range cases {
		if got := ClassifyGemm(tc.m, tc.n, tc.k); got != tc.want {
			t.Errorf("ClassifyGemm(%d,%d,%d) = %q, want %q", tc.m, tc.n, tc.k, got, tc.want)
		}
	}
}

func TestClassifyGemv(t *testing.T) {
	cases := []struct {
		m, n int
		want string
	}{
		{1000, 1000, "square"},
		{8000, 1000, "tallm"},
		{1000, 8000, "widen"},
		{3000, 1000, "square"},
	}
	for _, tc := range cases {
		if got := ClassifyGemv(tc.m, tc.n); got != tc.want {
			t.Errorf("ClassifyGemv(%d,%d) = %q, want %q", tc.m, tc.n, got, tc.want)
		}
	}
}

func TestCanonicalShapesClassifyOntoTheirClass(t *testing.T) {
	for _, class := range GemmClasses {
		m, n, k := ShapeGemm(class, 64)
		if got := ClassifyGemm(m, n, k); got != class {
			t.Errorf("ShapeGemm(%q) dims %d,%d,%d classify as %q", class, m, n, k, got)
		}
	}
	for _, class := range GemvClasses {
		m, n := ShapeGemv(class, 256)
		if got := ClassifyGemv(m, n); got != class {
			t.Errorf("ShapeGemv(%q) dims %d,%d classify as %q", class, m, n, got)
		}
	}
}

func TestCharacteristicSizes(t *testing.T) {
	if got := GemmSize(64, 64, 64); math.Abs(got-64) > 1e-9 {
		t.Errorf("GemmSize(cube) = %g, want 64", got)
	}
	if got := GemvSize(100, 400); math.Abs(got-200) > 1e-9 {
		t.Errorf("GemvSize(100,400) = %g, want 200", got)
	}
}

func TestLeaveOneOut(t *testing.T) {
	tb := testTable()
	errs := LeaveOneOut(tb)
	if len(errs) != len(tb.Series) {
		t.Fatalf("LeaveOneOut returned %d summaries for %d series", len(errs), len(tb.Series))
	}
	for _, e := range errs {
		switch {
		case e.Kernel == "gemm" && e.Class == "square":
			// Three points: one interior check. Predicted eff at size 128
			// from (32,0.25)-(512,1.0): log-fraction 0.5 → 0.625, actual
			// 0.5 → rel error 0.25.
			if e.Checks != 1 || math.Abs(e.MaxRel-0.25) > 1e-9 {
				t.Errorf("%s: checks=%d maxRel=%g, want 1, 0.25", e.Key(), e.Checks, e.MaxRel)
			}
			if e.WorstSize != 128 { //blobvet:allow floatcompare -- WorstSize is a copied grid coordinate, no arithmetic
				t.Errorf("%s: worst size %g, want 128", e.Key(), e.WorstSize)
			}
		default:
			// Two- and one-point series have no interior: zero checks, zero
			// error.
			if e.Checks != 0 || e.MaxRel != 0 {
				t.Errorf("%s: checks=%d maxRel=%g, want no interior checks", e.Key(), e.Checks, e.MaxRel)
			}
		}
	}
}

func TestCompareModelAgainstExactModel(t *testing.T) {
	// Sample a table directly from a model that is linear in log(size):
	// linear interpolation reproduces it exactly, so every midpoint error
	// must be ~0.
	model := func(kernel, precision, class string, size float64) (float64, bool) {
		return 0.1 + 0.1*math.Log2(size/16), true
	}
	s := Series{Kernel: "gemm", Precision: "f32", Class: "square"}
	for _, size := range []float64{16, 64, 256, 1024} {
		eff, _ := model("gemm", "f32", "square", size)
		s.Points = append(s.Points, Point{Size: size, GFlops: eff * 10, Eff: eff})
	}
	tb := &Table{Schema: Schema, Source: "synthetic:test", Series: []Series{s}}
	for _, e := range CompareModel(tb, model) {
		if e.Checks != 3 {
			t.Fatalf("CompareModel checks = %d, want 3 midpoints", e.Checks)
		}
		if e.MaxRel > 1e-9 {
			t.Fatalf("log-linear model reproduced with rel error %g", e.MaxRel)
		}
	}
	// A model that skips the tuple contributes no checks.
	none := CompareModel(tb, func(string, string, string, float64) (float64, bool) { return 0, false })
	if none[0].Checks != 0 {
		t.Fatalf("uncovered model produced %d checks", none[0].Checks)
	}
}

func TestSeriesErrorWithin(t *testing.T) {
	e := SeriesError{MaxRel: 0.10, GeoMean: 0.05}
	if !e.Within(0.12, 0.06) {
		t.Fatal("in-band series reported out of band")
	}
	if e.Within(0.08, 0.06) || e.Within(0.12, 0.04) {
		t.Fatal("out-of-band series reported in band")
	}
}

// TestEffParsedMatchesBuiltInCode: the committed tables, parsed from
// JSON and rebuilt point by point in code, interpolate bit-identically
// to each other and to the four-logarithm formula Eff used before it
// cached each point's log(Size) — on every grid point, between grid
// points and outside the grid.
func TestEffParsedMatchesBuiltInCode(t *testing.T) {
	// ref is linear interpolation in log(size) with every logarithm
	// taken per call.
	ref := func(pts []Point, size float64) float64 {
		if size <= pts[0].Size {
			return pts[0].Eff
		}
		last := len(pts) - 1
		if size >= pts[last].Size {
			return pts[last].Eff
		}
		hi := 1
		for pts[hi].Size < size {
			hi++
		}
		a, b := pts[hi-1], pts[hi]
		f := (math.Log(size) - math.Log(a.Size)) / (math.Log(b.Size) - math.Log(a.Size))
		return a.Eff + f*(b.Eff-a.Eff)
	}
	for _, name := range []string{"efftab_cpu.json", "efftab_gpu.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "..", "bench_data", name))
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		built := &Table{Schema: parsed.Schema, Source: parsed.Source}
		for _, s := range parsed.Series {
			cs := Series{Kernel: s.Kernel, Precision: s.Precision, Class: s.Class}
			for _, p := range s.Points {
				cs.Points = append(cs.Points, Point{Size: p.Size, GFlops: p.GFlops, Eff: p.Eff})
			}
			built.Series = append(built.Series, cs)
		}
		checks := 0
		for _, s := range parsed.Series {
			pts := s.Points
			sizes := []float64{pts[0].Size / 2, pts[0].Size * 0.999, pts[len(pts)-1].Size * 1.001, pts[len(pts)-1].Size * 3}
			for i, p := range pts {
				sizes = append(sizes, p.Size)
				if i+1 < len(pts) {
					q := pts[i+1].Size
					sizes = append(sizes, math.Sqrt(p.Size*q), p.Size+(q-p.Size)/3, math.Nextafter(q, 0))
				}
			}
			for _, size := range sizes {
				want := ref(pts, size)
				for _, tb := range []*Table{parsed, built} {
					got, ok := tb.Eff(s.Kernel, s.Precision, s.Class, size)
					if !ok || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s/%s/%s at %v: Eff = %v (ok %v), want %v",
							name, s.Kernel, s.Precision, s.Class, size, got, ok, want)
					}
				}
				checks++
			}
		}
		t.Logf("%s: %d sizes bit-identical", name, checks)
	}
}

// TestEffConcurrentFirstLookup: lookups racing to build a fresh table's
// log cache agree (and, under -race, do not race).
func TestEffConcurrentFirstLookup(t *testing.T) {
	tb := testTable()
	want, _ := testTable().Eff("gemm", "f32", "square", 100)
	got := make(chan float64, 4)
	for range cap(got) {
		go func() {
			eff, _ := tb.Eff("gemm", "f32", "square", 100)
			got <- eff
		}()
	}
	for range cap(got) {
		if eff := <-got; math.Float64bits(eff) != math.Float64bits(want) {
			t.Fatalf("concurrent Eff = %v, want %v", eff, want)
		}
	}
}
