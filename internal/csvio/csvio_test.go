package csvio

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

func sampleSeries(t *testing.T, mode core.Mode) *core.Series {
	t.Helper()
	pt, err := core.FindProblem(core.GEMM, "square")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(8)
	cfg.MaxDim = 96
	cfg.Step = 8
	cfg.Mode = mode
	cfg.Validate.Enabled = false
	ser, err := core.RunProblem(context.Background(), systems.IsambardAI(), pt, core.F32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ser
}

func TestFileName(t *testing.T) {
	ser := sampleSeries(t, core.ModeBoth)
	if got := FileName(ser); got != "sgemm_square.csv" {
		t.Fatalf("FileName = %q", got)
	}
}

func TestRoundTrip(t *testing.T) {
	ser := sampleSeries(t, core.ModeBoth)
	rows := SeriesRows(ser)
	// 12 samples x (1 CPU + 3 GPU) rows.
	if want := len(ser.Samples) * 4; len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	var buf bytes.Buffer
	if err := Write(&buf, rows); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("read %d rows, wrote %d", len(back), len(rows))
	}
	for i := range rows {
		if rows[i] != back[i] {
			t.Fatalf("row %d: %+v != %+v", i, rows[i], back[i])
		}
	}
}

func TestWriteSeriesAndReadFile(t *testing.T) {
	dir := t.TempDir()
	ser := sampleSeries(t, core.ModeBoth)
	path, err := WriteSeries(dir, ser)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "sgemm_square.csv" {
		t.Fatalf("path = %q", path)
	}
	rows, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows read back")
	}
}

func TestThresholdsFromCombinedRows(t *testing.T) {
	ser := sampleSeries(t, core.ModeBoth)
	th, err := Thresholds(SeriesRows(ser))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range xfer.Strategies {
		want := ser.Thresholds[st]
		got, ok := th[st.String()]
		if !ok {
			t.Fatalf("missing strategy %v", st)
		}
		if got.Found != want.Found || (got.Found && got.Dims != want.Dims) {
			t.Fatalf("%v: csv-derived %v vs runner %v", st, got, want)
		}
	}
}

// The LUMI workflow: CPU-only and GPU-only runs written separately, files
// concatenated (with the embedded second header), thresholds re-derived —
// and they must match a combined run.
func TestLUMIStyleSplitWorkflow(t *testing.T) {
	dir := t.TempDir()
	combined := sampleSeries(t, core.ModeBoth)
	cpuSer := sampleSeries(t, core.ModeCPUOnly)
	gpuSer := sampleSeries(t, core.ModeGPUOnly)
	cpuPath, err := WriteSeries(filepath.Join(dir, "cpu"), cpuSer)
	if err != nil {
		t.Fatal(err)
	}
	gpuPath, err := WriteSeries(filepath.Join(dir, "gpu"), gpuSer)
	if err != nil {
		t.Fatal(err)
	}
	// Concatenate the two files byte-wise, as the artifact instructs.
	a, _ := os.ReadFile(cpuPath)
	b, _ := os.ReadFile(gpuPath)
	cat := filepath.Join(dir, "combined.csv")
	if err := os.WriteFile(cat, append(a, b...), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadFile(cat)
	if err != nil {
		t.Fatal(err)
	}
	th, err := Thresholds(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range xfer.Strategies {
		want := combined.Thresholds[st]
		got := th[st.String()]
		if got.Found != want.Found || (got.Found && got.Dims != want.Dims) {
			t.Fatalf("%v: split-run %v vs combined %v", st, got, want)
		}
	}
}

func TestThresholdsCPUOnlyRowsYieldNothing(t *testing.T) {
	ser := sampleSeries(t, core.ModeCPUOnly)
	th, err := Thresholds(SeriesRows(ser))
	if err != nil {
		t.Fatal(err)
	}
	if len(th) != 0 {
		t.Fatalf("CPU-only rows should yield no strategies, got %v", th)
	}
}

func TestReadRejectsMalformedRow(t *testing.T) {
	csv := strings.Join(Header, ",") + "\n" +
		"sys,CPU,lib,SGEMM,square,M=N=K,,notanint,2,3,1,0.5,1.0,true\n"
	if _, err := Read(strings.NewReader(csv)); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestThresholdsRejectsUnknownDevice(t *testing.T) {
	rows := []Row{{Device: "FPGA", M: 1, N: 1, K: 1}}
	if _, err := Thresholds(rows); err == nil {
		t.Fatal("expected error for unknown device")
	}
}

func TestChecksumColumnSerialized(t *testing.T) {
	pt, _ := core.FindProblem(core.GEMM, "square")
	cfg := core.DefaultConfig(1)
	cfg.MaxDim = 40
	cfg.Step = 8
	cfg.Validate = core.Validation{Enabled: true, Every: 1, MaxFlops: 1e9}
	ser, err := core.RunProblem(context.Background(), systems.DAWN(), pt, core.F64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := SeriesRows(ser)
	sawTrue := false
	for _, r := range rows {
		if r.ChecksumOK == "true" {
			sawTrue = true
		}
	}
	if !sawTrue {
		t.Fatal("validated series should serialize checksum_ok=true rows")
	}
}
