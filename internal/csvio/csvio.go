// Package csvio reads and writes GPU-BLOB's CSV result files.
//
// The artifact emits one CSV per (kernel, precision, problem type) — 28
// files per full run: 9 SGEMM, 9 DGEMM, 5 SGEMV, 5 DGEMV. Each row is one
// (problem size, device, transfer strategy) measurement. CPU rows carry an
// empty strategy column. The same format is consumed by blob-threshold
// (offline threshold extraction, the calculateOffloadThreshold.py
// equivalent) and blob-graphs (createGflopsGraphs.py equivalent), including
// the LUMI workflow of concatenating separate CPU-only and GPU-only runs.
package csvio

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim/xfer"
)

// Header is the column layout of every GPU-BLOB CSV file.
var Header = []string{
	"system", "device", "library", "kernel", "problem", "problem_desc",
	"strategy", "m", "n", "k", "iterations", "total_seconds", "gflops",
	"checksum_ok",
}

// Row is one measurement line.
type Row struct {
	System  string
	Device  string // "CPU" or "GPU"
	Library string
	Kernel  string // e.g. "SGEMM"
	Problem string // problem type name, e.g. "square"
	Desc    string // problem type definition, e.g. "M=N=K"
	// Strategy is empty for CPU rows, else Once/Always/USM.
	Strategy   string
	M, N, K    int
	Iterations int
	Seconds    float64
	Gflops     float64
	// ChecksumOK is "", "true" or "false" ("" = not validated).
	ChecksumOK string
}

// FileName returns the canonical CSV name for a series, e.g.
// "sgemm_square.csv".
func FileName(ser *core.Series) string {
	return strings.ToLower(ser.KernelName()) + "_" + ser.Problem.Name + ".csv"
}

// SeriesRows flattens a Series into CSV rows. Rows appear in sweep order:
// for each sample, the CPU row (if run) followed by one GPU row per
// strategy (if run).
func SeriesRows(ser *core.Series) []Row {
	kernel := ser.KernelName()
	var rows []Row
	for i := range ser.Samples {
		smp := &ser.Samples[i]
		cpuGF, gpuGF := ser.Gflops(smp)
		check := ""
		if smp.Validated {
			check = strconv.FormatBool(smp.ChecksumOK)
		}
		base := Row{
			System: ser.System, Kernel: kernel,
			Problem: ser.Problem.Name, Desc: ser.Problem.Desc,
			M: smp.Dims.M, N: smp.Dims.N, K: smp.Dims.K,
			Iterations: ser.Config.Iterations,
			ChecksumOK: check,
		}
		if ser.Config.Mode != core.ModeGPUOnly {
			r := base
			r.Device = "CPU"
			r.Library = ser.CPULibrary
			r.Seconds = smp.CPUSeconds
			r.Gflops = cpuGF
			rows = append(rows, r)
		}
		if ser.Config.Mode != core.ModeCPUOnly {
			for _, st := range xfer.Strategies {
				r := base
				r.Device = "GPU"
				r.Library = ser.GPULibrary
				r.Strategy = st.String()
				r.Seconds = smp.GPUSeconds[st]
				r.Gflops = gpuGF[st]
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// Write emits rows (with header) to w.
func Write(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(Header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.System, r.Device, r.Library, r.Kernel, r.Problem, r.Desc,
			r.Strategy,
			strconv.Itoa(r.M), strconv.Itoa(r.N), strconv.Itoa(r.K),
			strconv.Itoa(r.Iterations),
			strconv.FormatFloat(r.Seconds, 'g', -1, 64),
			strconv.FormatFloat(r.Gflops, 'g', -1, 64),
			r.ChecksumOK,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSeries writes one series to dir using the canonical file name and
// returns the full path.
func WriteSeries(dir string, ser *core.Series) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(ser))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := Write(f, SeriesRows(ser)); err != nil {
		return "", err
	}
	return path, nil
}

// WriteAll writes every series into dir, returning the file paths.
func WriteAll(dir string, series []*core.Series) ([]string, error) {
	paths := make([]string, 0, len(series))
	for _, ser := range series {
		p, err := WriteSeries(dir, ser)
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// Read parses rows from r, skipping the header. Extra header rows embedded
// mid-file (from concatenating CPU-only and GPU-only CSVs, the LUMI
// workflow) are skipped too.
func Read(r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(Header)
	var rows []Row
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		if rec[0] == Header[0] && rec[1] == Header[1] {
			// Header row — leading, or embedded mid-file after CPU-only and
			// GPU-only CSVs are concatenated (the LUMI workflow).
			continue
		}
		row, err := parseRow(rec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
}

// ReadFile parses a CSV file.
func ReadFile(path string) ([]Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("csvio: %s: %w", path, err)
	}
	return rows, nil
}

func parseRow(rec []string) (Row, error) {
	var r Row
	var err error
	r.System, r.Device, r.Library = rec[0], rec[1], rec[2]
	r.Kernel, r.Problem, r.Desc, r.Strategy = rec[3], rec[4], rec[5], rec[6]
	if r.M, err = strconv.Atoi(rec[7]); err != nil {
		return r, fmt.Errorf("bad m %q: %w", rec[7], err)
	}
	if r.N, err = strconv.Atoi(rec[8]); err != nil {
		return r, fmt.Errorf("bad n %q: %w", rec[8], err)
	}
	if r.K, err = strconv.Atoi(rec[9]); err != nil {
		return r, fmt.Errorf("bad k %q: %w", rec[9], err)
	}
	if r.Iterations, err = strconv.Atoi(rec[10]); err != nil {
		return r, fmt.Errorf("bad iterations %q: %w", rec[10], err)
	}
	if r.Seconds, err = strconv.ParseFloat(rec[11], 64); err != nil {
		return r, fmt.Errorf("bad seconds %q: %w", rec[11], err)
	}
	if r.Gflops, err = strconv.ParseFloat(rec[12], 64); err != nil {
		return r, fmt.Errorf("bad gflops %q: %w", rec[12], err)
	}
	r.ChecksumOK = rec[13]
	return r, nil
}

// ErrUnknownDevice is the sentinel Thresholds wraps for a row whose
// device is neither CPU nor GPU.
var ErrUnknownDevice = errors.New("csvio: unknown device")

// Thresholds recomputes the per-strategy offload thresholds from raw rows,
// exactly as blob-threshold does for LUMI-style split runs. Rows may mix
// CPU and GPU entries in any order; they are joined on (m, n, k) and
// processed in ascending size order.
func Thresholds(rows []Row) (map[string]core.Threshold, error) {
	type key struct{ m, n, k int }
	cpu := map[key]float64{}
	gpu := map[string]map[key]float64{}
	var order []key
	seen := map[key]bool{}
	iter := 0
	for _, r := range rows {
		k := key{r.M, r.N, r.K}
		if !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
		if r.Iterations > iter {
			iter = r.Iterations
		}
		switch r.Device {
		case "CPU":
			cpu[k] = r.Seconds
		case "GPU":
			if gpu[r.Strategy] == nil {
				gpu[r.Strategy] = map[key]float64{}
			}
			gpu[r.Strategy][k] = r.Seconds
		default:
			return nil, fmt.Errorf("%w %q", ErrUnknownDevice, r.Device)
		}
	}
	out := map[string]core.Threshold{}
	for strat, times := range gpu {
		var det core.ThresholdDetector
		for _, k := range order {
			ct, okC := cpu[k]
			gt, okG := times[k]
			if !okC || !okG {
				continue // unmatched row (size run on only one device)
			}
			det.ObserveTimes(core.Dims{M: k.m, N: k.n, K: k.k}, ct, gt)
		}
		dims, found := det.Threshold()
		out[strat] = core.Threshold{Dims: dims, Found: found}
	}
	return out, nil
}
