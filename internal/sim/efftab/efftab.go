// Package efftab holds the measured-efficiency tables behind the sims'
// blackbox mode: schema-versioned JSON artifacts, generated by
// blob-calibrate from the live internal/blas kernels (CPU) or synthesized
// from the reference analytic model (GPU), that record relative kernel
// efficiency keyed by (kernel, precision, shape-class, size).
//
// The analytic roofline models in cpumodel/gpumodel derive their
// efficiency ramps from closed-form occupancy formulas fed spec-sheet
// constants. Blackbox mode replaces exactly that ramp with a table
// lookup: the size-dependent relative efficiency Eff in (0, 1] is
// interpolated from measured grid points, and the model multiplies it
// onto its own library asymptote and device peak. Everything else —
// dispatch overhead, transfer strategies, USM heuristics — stays with
// the analytic model, so the two modes differ only in where the
// efficiency curve comes from.
//
// Lookup semantics (DESIGN.md §15):
//
//   - interpolation is linear in log(size) between bracketing grid
//     points, which makes the interpolant monotone between neighbours
//     and smooth across the decades a sweep covers;
//   - extrapolation is clamped: sizes below the first grid point take
//     the first point's efficiency, sizes above the last take the last's;
//   - an unknown shape class falls back to the nearest recorded class
//     for the same (kernel, precision) — "square" first, then the
//     lexicographically first class — because shape classes share far
//     more curve shape than kernels or precisions do;
//   - a missing (kernel, precision) series reports !ok, and the caller
//     (cpumodel/gpumodel) falls back to the analytic roofline for that
//     call.
//
// The fidelity helpers (LeaveOneOut, CompareModel) quantify how well the
// table's grid plus this interpolation scheme reproduce the underlying
// curve; blob-calibrate's fidelity subcommand gates their error bands in
// scripts/verify.sh and writes the FIDELITY.md report.
package efftab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Schema is the artifact format token. Parse refuses other versions;
// bump it whenever a field changes meaning.
const Schema = "efftab/v1"

// ErrInvalid is the sentinel wrapped by every Validate failure, so
// callers can classify a structurally broken table with errors.Is
// instead of string-matching (errcontract: errors crossing the package
// boundary stay classifiable).
var ErrInvalid = errors.New("efftab: invalid table")

// Host records the environment a measurement was taken on. It is the one
// self-describing host block of every artifact: efficiency tables, and
// the blob-bench and blob-soak artifacts (GEMMbench's discipline: a
// reader must be able to judge whether the measurements transfer).
type Host struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Hostname   string `json:"hostname,omitempty"`
}

// CurrentHost captures the running environment.
func CurrentHost() Host {
	hn, _ := os.Hostname()
	return Host{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Hostname:   hn,
	}
}

// Point is one grid sample of a series: the characteristic size (the
// geometric mean of the call's dimensions), the rate observed there, and
// the relative efficiency the models consume.
type Point struct {
	// Size is the characteristic problem size, GemmSize/GemvSize of the
	// measured dims. Strictly increasing within a series.
	Size float64 `json:"size"`
	// GFlops is the rate measured (or synthesized) at this point. It is
	// informational: the models consume Eff, but FIDELITY.md and humans
	// want the absolute number the normalization came from.
	GFlops float64 `json:"gflops"`
	// Eff is the relative efficiency in (0, 1]: GFlops divided by the
	// table's per-precision reference peak (the best rate observed
	// anywhere on the grid for that precision).
	Eff float64 `json:"eff"`
}

// Series is the efficiency curve for one (kernel, precision, shape-class).
type Series struct {
	Kernel    string  `json:"kernel"`    // "gemm" or "gemv"
	Precision string  `json:"precision"` // "f32" or "f64"
	Class     string  `json:"class"`     // shape class, see ClassifyGemm/ClassifyGemv
	Points    []Point `json:"points"`
}

// Table is one efftab artifact: a self-describing set of efficiency
// series plus the provenance needed to judge it.
type Table struct {
	Schema      string `json:"schema"`
	CreatedUnix int64  `json:"created_unix"`
	// Source names where the numbers came from: "live-blas" for tables
	// measured from internal/blas kernels, "synthetic:<model>" for tables
	// sampled from an analytic reference model.
	Source string `json:"source"`
	// RefPeakGF is the normalization base per precision token: the best
	// rate observed on the grid, the denominator of every Eff.
	RefPeakGF map[string]float64 `json:"ref_peak_gflops,omitempty"`
	Host      Host               `json:"host"`
	Series    []Series           `json:"series"`

	// logSize caches math.Log of every point's Size, one slice per entry
	// of Series, so Eff takes one logarithm per call instead of four. The
	// first lookup builds it; a table is read-only from then on.
	logSize atomic.Pointer[[][]float64]
}

// Set pairs the two tables blackbox mode consults.
type Set struct {
	CPU *Table
	GPU *Table
}

// Validate checks the structural contract Parse and the models rely on:
// known schema, known kernel/precision tokens, non-empty series with
// strictly increasing sizes and efficiencies in (0, 1].
func (t *Table) Validate() error {
	if t.Schema != Schema {
		return fmt.Errorf("%w: schema %q, this binary reads %q", ErrInvalid, t.Schema, Schema)
	}
	if len(t.Series) == 0 {
		return fmt.Errorf("%w: table has no series", ErrInvalid)
	}
	seen := map[string]bool{}
	for i, s := range t.Series {
		if s.Kernel != "gemm" && s.Kernel != "gemv" {
			return fmt.Errorf("%w: series %d has unknown kernel %q", ErrInvalid, i, s.Kernel)
		}
		if s.Precision != "f32" && s.Precision != "f64" {
			return fmt.Errorf("%w: series %d has unknown precision %q", ErrInvalid, i, s.Precision)
		}
		if s.Class == "" {
			return fmt.Errorf("%w: series %d has an empty class", ErrInvalid, i)
		}
		key := s.Kernel + "|" + s.Precision + "|" + s.Class
		if seen[key] {
			return fmt.Errorf("%w: duplicate series %s", ErrInvalid, key)
		}
		seen[key] = true
		if len(s.Points) == 0 {
			return fmt.Errorf("%w: series %s has no points", ErrInvalid, key)
		}
		prev := 0.0
		for j, p := range s.Points {
			if p.Size <= prev {
				return fmt.Errorf("%w: series %s point %d: sizes must be strictly increasing (%g after %g)", ErrInvalid, key, j, p.Size, prev)
			}
			prev = p.Size
			if p.Eff <= 0 || p.Eff > 1.0000001 || math.IsNaN(p.Eff) {
				return fmt.Errorf("%w: series %s point %d: eff %g outside (0, 1]", ErrInvalid, key, j, p.Eff)
			}
		}
	}
	return nil
}

// Parse decodes and validates one table.
func Parse(data []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("efftab: parsing table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Load reads and validates a table file.
func Load(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("efftab: %w", err)
	}
	t, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("efftab: %s: %w", path, err)
	}
	return t, nil
}

// WriteFile serializes the table as indented JSON, sorted canonically so
// regenerated artifacts diff cleanly.
func (t *Table) WriteFile(path string) error {
	sortSeries(t.Series)
	t.logSize.Store(nil) // the cache follows series order
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("efftab: encoding table: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortSeries(series []Series) {
	sort.Slice(series, func(a, b int) bool {
		sa, sb := series[a], series[b]
		if sa.Kernel != sb.Kernel {
			return sa.Kernel < sb.Kernel
		}
		if sa.Precision != sb.Precision {
			return sa.Precision < sb.Precision
		}
		return sa.Class < sb.Class
	})
}

// series resolves the index of the lookup series with the nearest-class
// fallback: exact (kernel, precision, class), else the "square" class,
// else the lexicographically first class recorded for that (kernel,
// precision). It returns -1 when the pair has no series.
func (t *Table) series(kernel, precision, class string) int {
	square, first := -1, -1
	for i := range t.Series {
		s := &t.Series[i]
		if s.Kernel != kernel || s.Precision != precision {
			continue
		}
		if s.Class == class {
			return i
		}
		if s.Class == "square" {
			square = i
		}
		if first < 0 || s.Class < t.Series[first].Class {
			first = i
		}
	}
	if square >= 0 {
		return square
	}
	return first
}

// logSizes returns math.Log of every point's Size, per series, computing
// them on the table's first call. Concurrent first calls each compute
// the same values; whichever stores last wins.
func (t *Table) logSizes() [][]float64 {
	if ls := t.logSize.Load(); ls != nil {
		return *ls
	}
	ls := make([][]float64, len(t.Series))
	for i, s := range t.Series {
		ls[i] = make([]float64, len(s.Points))
		for j, p := range s.Points {
			ls[i][j] = math.Log(p.Size)
		}
	}
	t.logSize.Store(&ls)
	return ls
}

// Eff interpolates the relative efficiency for one call. It reports
// !ok when the table records nothing for the (kernel, precision) pair —
// the caller's cue to fall back to its analytic roofline.
//
//blobvet:hotpath
func (t *Table) Eff(kernel, precision, class string, size float64) (float64, bool) {
	si := t.series(kernel, precision, class)
	if si < 0 || size <= 0 || math.IsNaN(size) {
		return 0, false
	}
	pts := t.Series[si].Points
	// Clamped extrapolation: outside the grid the curve is flat.
	if size <= pts[0].Size {
		return pts[0].Eff, true
	}
	last := len(pts) - 1
	if size >= pts[last].Size {
		return pts[last].Eff, true
	}
	// Binary search for the bracketing pair, then linear in log(size).
	// Inlined rather than sort.Search: this is the //blobvet:hotpath, and
	// the predicate closure would allocate its environment per call.
	lo, hi := 0, last
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].Size < size {
			lo = mid
		} else {
			hi = mid
		}
	}
	ln := t.logSizes()[si]
	f := (math.Log(size) - ln[lo]) / (ln[hi] - ln[lo])
	a, b := pts[lo].Eff, pts[hi].Eff
	return a + f*(b-a), true
}

// Fingerprint returns a stable identity for the table's data: the hex
// SHA-256 of a canonical rendering of schema, source and every series
// point. Host and timestamp are deliberately excluded — two calibration
// runs that measured identical curves are the same table — so the value
// is safe to fold into core.Config.Hash, where it distinguishes cached
// blackbox results produced from different table generations.
func (t *Table) Fingerprint() string {
	var sb strings.Builder
	sb.WriteString(t.Schema)
	sb.WriteByte('\n')
	sb.WriteString(t.Source)
	sb.WriteByte('\n')
	series := append([]Series(nil), t.Series...)
	sortSeries(series)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range series {
		sb.WriteString(s.Kernel + "|" + s.Precision + "|" + s.Class)
		for _, p := range s.Points {
			sb.WriteString(" " + f(p.Size) + ":" + f(p.Eff))
		}
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// Fingerprint combines the two tables' fingerprints into one identity.
func (s *Set) Fingerprint() string {
	cpu, gpu := "none", "none"
	if s.CPU != nil {
		cpu = s.CPU.Fingerprint()
	}
	if s.GPU != nil {
		gpu = s.GPU.Fingerprint()
	}
	sum := sha256.Sum256([]byte(cpu + "+" + gpu))
	return hex.EncodeToString(sum[:])
}
