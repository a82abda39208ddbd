package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fastOpt trades sweep resolution for test speed; qualitative assertions
// below only rely on coarse structure.
func fastOpt() Options {
	return Options{Step: 16, MaxDim: 2048}
}

func TestRegistryCoversPaperElements(t *testing.T) {
	want := []string{
		"table1", "table3", "table4", "table5", "table6",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"flops-model", "xnack",
		"stability", "quirks", "perfstat",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Fatalf("missing experiment %s: %v", id, err)
		}
	}
	if _, err := ByID("table42"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("%s: incomplete registration", e.ID)
		}
	}
}

func TestTableIShape(t *testing.T) {
	var buf bytes.Buffer
	if err := TableI(context.Background(), &buf, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, dev := range []string{"A100", "MI250X", "Max 1550", "8468", "7543P"} {
		if !strings.Contains(out, dev) {
			t.Fatalf("Table I missing device %s:\n%s", dev, out)
		}
	}
	// The beta effect: every row's b2/b0 ratio must exceed 1 (beta=0 is a
	// real shortcut) and stay bounded near the paper's 1.2x-1.7x band (the
	// single-threaded CPU rows run more memory-bound in the model, so allow
	// up to 2x — the pure byte ratio of the extra C read).
	re := regexp.MustCompile(`(\d+\.\d+)x`)
	matches := re.FindAllStringSubmatch(out, -1)
	if len(matches) != 5 {
		t.Fatalf("expected 5 ratio cells, got %d:\n%s", len(matches), out)
	}
	for _, m := range matches {
		if m[1] < "1.0" || m[1] >= "2.0" {
			t.Fatalf("beta ratio %s outside [1.0, 2.0):\n%s", m[1], out)
		}
	}
}

func TestTableIIIQualitativeShape(t *testing.T) {
	var buf bytes.Buffer
	opt := fastOpt()
	opt.Step = 1 // threshold values matter here
	opt.MaxDim = 1024
	if err := TableIII(context.Background(), &buf, opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Isambard-AI rows must all be 26:26 for Once (the paper's headline).
	if !strings.Contains(out, "26:26") {
		t.Fatalf("Isambard 26:26 missing:\n%s", out)
	}
	// DAWN at 1 iteration crosses at the oneMKL drop.
	if !strings.Contains(out, "629:629") {
		t.Fatalf("DAWN 629 threshold missing:\n%s", out)
	}
}

func TestTableIVQualitativeShape(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Step: 1, MaxDim: 4096}
	if err := TableIV(context.Background(), &buf, opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(out, "\n")
	// Every 1-iteration row and every Always cell must be "—:—" (the
	// paper's one fully-consistent GEMV finding).
	oneIterRows := 0
	for _, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) < 5 {
			continue
		}
		if fields[1] == "1" {
			oneIterRows++
			if fields[2] != "—:—" || fields[3] != "—:—" || fields[4] != "—:—" {
				t.Fatalf("1-iteration GEMV row should have no thresholds: %q", ln)
			}
		}
		if fields[1] == "8" || fields[1] == "32" || fields[1] == "64" || fields[1] == "128" {
			if fields[3] != "—:—" {
				t.Fatalf("Transfer-Always GEMV should never threshold: %q", ln)
			}
		}
	}
	if oneIterRows != 3 {
		t.Fatalf("expected 3 one-iteration rows, got %d:\n%s", oneIterRows, out)
	}
	// Isambard's static 256 threshold.
	if !strings.Contains(out, "256:") {
		t.Fatalf("Isambard 256 GEMV threshold missing:\n%s", out)
	}
}

func TestTableVAndVIRun(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Step: 4, MaxDim: 4096}
	if err := TableV(context.Background(), &buf, opt); err != nil {
		t.Fatal(err)
	}
	outV := buf.String()
	if strings.Count(outV, "\n") < 8 {
		t.Fatalf("Table V too short:\n%s", outV)
	}
	// DAWN never thresholds the two-small-dims problem types (§IV-C).
	for _, ln := range strings.Split(outV, "\n") {
		if strings.HasPrefix(ln, "M=N=32") || strings.HasPrefix(ln, "K=N=32") || strings.HasPrefix(ln, "M=K=32") {
			fields := strings.Fields(ln)
			if fields[len(fields)-3] != "—:—" { // DAWN column
				t.Fatalf("DAWN should never threshold %q", ln)
			}
		}
	}
	buf.Reset()
	if err := TableVI(context.Background(), &buf, opt); err != nil {
		t.Fatal(err)
	}
	outVI := buf.String()
	if !strings.Contains(outVI, "M=16N") {
		t.Fatalf("Table VI missing row:\n%s", outVI)
	}
}

func TestFiguresRenderAndWriteSVG(t *testing.T) {
	dir := t.TempDir()
	opt := fastOpt()
	opt.OutDir = dir
	figs := map[string]func(w *bytes.Buffer) error{
		"fig2": func(w *bytes.Buffer) error { return Fig2(context.Background(), w, opt) },
		"fig4": func(w *bytes.Buffer) error { return Fig4(context.Background(), w, opt) },
		"fig6": func(w *bytes.Buffer) error { return Fig6(context.Background(), w, opt) },
		"fig7": func(w *bytes.Buffer) error { return Fig7(context.Background(), w, opt) },
	}
	for name, run := range figs {
		var buf bytes.Buffer
		if err := run(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), "GFLOP/s") {
			t.Fatalf("%s: no chart rendered:\n%s", name, buf.String())
		}
	}
	svgs, _ := filepath.Glob(filepath.Join(dir, "*.svg"))
	if len(svgs) < 4 {
		t.Fatalf("expected >=4 SVGs, got %v", svgs)
	}
	data, err := os.ReadFile(svgs[0])
	if err != nil || !strings.Contains(string(data), "<svg") {
		t.Fatalf("svg content: %v", err)
	}
}

func TestFig3SmallSizes(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(context.Background(), &buf, Options{Step: 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "NVPL 24.7 (1 thread)") || !strings.Contains(out, "ArmPL") {
		t.Fatalf("Fig 3 must compare three CPU configs:\n%s", out)
	}
}

func TestFig5BothSystems(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(context.Background(), &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Isambard-AI") || !strings.Contains(out, "DAWN") {
		t.Fatalf("Fig 5 must cover both systems:\n%s", out)
	}
}

func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	if err := FlopsModel(context.Background(), &buf, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GEMM") || !strings.Contains(buf.String(), "%") {
		t.Fatalf("flops ablation:\n%s", buf.String())
	}
	buf.Reset()
	if err := Xnack(context.Background(), &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "XNACK") {
		t.Fatalf("xnack ablation:\n%s", buf.String())
	}
	buf.Reset()
	if err := PerfStat(context.Background(), &buf, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.89 CPUs") {
		t.Fatalf("perfstat should report the paper's 0.89 CPUs figure:\n%s", buf.String())
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.Normalize()
	if o.Step != 1 || o.MaxDim != 4096 {
		t.Fatalf("defaults: %+v", o)
	}
}
