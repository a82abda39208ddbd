package benchmark

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/sim/efftab"
)

// SchemaVersion is the artifact format version. Compare refuses to gate
// across schema versions; bump it whenever a field changes meaning.
const SchemaVersion = 1

// The sentinels ReadArtifact, Run and Compare wrap, so callers can
// errors.Is the condition instead of matching the message.
var (
	ErrSchemaVersion  = errors.New("schema_version")
	ErrSchemaMismatch = errors.New("benchmark: schema mismatch")
	ErrSmokeMismatch  = errors.New("benchmark: cannot compare a smoke artifact against a full one")
	ErrNoCases        = errors.New("no cases")
	ErrNonPositiveNs  = errors.New("non-positive ns_per_op")
)

// CaseResult is the recorded outcome of one case: steady-state latency
// quantiles over the interleaved repetitions, allocation pressure, and —
// for kernel cases — the GFLOP/s rate under the exact §III-A FLOP model.
type CaseResult struct {
	Name  string `json:"name"`
	Group string `json:"group"`
	Reps  int    `json:"reps"`
	// NsPerOp is the headline number (the median, robust to one noisy
	// repetition); Min/P50/P99/Max give the shape of the distribution,
	// which matters for the service cases where tail latency is the
	// product.
	NsPerOp     float64 `json:"ns_per_op"`
	MinNs       float64 `json:"min_ns"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	MaxNs       float64 `json:"max_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	FlopsPerOp  int64   `json:"flops_per_op,omitempty"`
	GFlops      float64 `json:"gflops,omitempty"`
}

// Artifact is one BENCH_<tag>.json: a self-describing, schema-versioned
// record of a full suite run.
type Artifact struct {
	SchemaVersion int          `json:"schema_version"`
	Tag           string       `json:"tag"`
	CreatedUnix   int64        `json:"created_unix"`
	Host          efftab.Host  `json:"host"`
	Repetitions   int          `json:"repetitions"`
	Warmup        int          `json:"warmup"`
	Smoke         bool         `json:"smoke,omitempty"`
	Interleaved   bool         `json:"interleaved"`
	Cases         []CaseResult `json:"cases"`
}

// NewArtifact assembles an artifact around suite results.
func NewArtifact(tag string, opt Options, cases []CaseResult) *Artifact {
	opt = opt.withDefaults()
	return &Artifact{
		SchemaVersion: SchemaVersion,
		Tag:           tag,
		CreatedUnix:   time.Now().Unix(),
		Host:          efftab.CurrentHost(),
		Repetitions:   opt.Repetitions,
		Warmup:        opt.Warmup,
		Smoke:         opt.Smoke,
		Interleaved:   true,
		Cases:         cases,
	}
}

// WriteFile serializes the artifact as indented JSON.
func (a *Artifact) WriteFile(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("benchmark: encoding artifact: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadArtifact loads and validates one artifact file. The schema version
// must be known; a future (or corrupted) version is an error rather than
// a silently mis-read comparison.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark: %w", err)
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("benchmark: parsing %s: %w", path, err)
	}
	if a.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("benchmark: %s has %w %d, this binary reads %d",
			path, ErrSchemaVersion, a.SchemaVersion, SchemaVersion)
	}
	if len(a.Cases) == 0 {
		return nil, fmt.Errorf("benchmark: %s contains %w", path, ErrNoCases)
	}
	return &a, nil
}
