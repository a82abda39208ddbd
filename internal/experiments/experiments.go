// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV, Tables I and III-VI, Figures 2-7) plus the ablations and
// extensions called out in DESIGN.md. Each experiment is a named entry in
// the Registry; cmd/gpu-blob --experiment and the repository's benchmark
// harness both dispatch through it.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Options configures an experiment run.
type Options struct {
	// Step strides the size sweeps. 1 reproduces the paper's every-size
	// sweeps; larger values trade resolution for speed (thresholds may then
	// land on the nearest sampled size).
	Step int
	// MaxDim is the sweep upper bound d (default 4096).
	MaxDim int
	// OutDir, when non-empty, receives CSV files and SVG figures.
	OutDir string
	// Validate enables checksum validation on sampled sizes (slower).
	Validate bool
}

// Normalize fills defaults.
func (o Options) Normalize() Options {
	if o.Step < 1 {
		o.Step = 1
	}
	if o.MaxDim < 1 {
		o.MaxDim = 4096
	}
	return o
}

// Experiment is one regenerable paper element.
type Experiment struct {
	// ID is the CLI token, e.g. "table3" or "fig5".
	ID string
	// Title is the paper element it regenerates.
	Title string
	// Run writes the regenerated rows/series to w. The context flows into
	// every sweep the experiment performs, so cancelling it (Ctrl-C in
	// cmd/gpu-blob) aborts a long regeneration between problem sizes.
	Run func(ctx context.Context, w io.Writer, opt Options) error
}

// Registry lists all experiments in paper order.
var Registry = []Experiment{
	{ID: "table1", Title: "Table I: SGEMM run-times vs alpha/beta across devices and libraries", Run: TableI},
	{ID: "table3", Title: "Table III: square GEMM offload thresholds", Run: TableIII},
	{ID: "fig2", Title: "Fig 2: square SGEMM performance (1 iteration) on DAWN", Run: Fig2},
	{ID: "fig3", Title: "Fig 3: square SGEMM on Isambard-AI across CPU libraries", Run: Fig3},
	{ID: "table4", Title: "Table IV: square GEMV offload thresholds", Run: TableIV},
	{ID: "fig4", Title: "Fig 4: square DGEMV performance (1 iteration)", Run: Fig4},
	{ID: "fig5", Title: "Fig 5: square SGEMV performance (128 iterations), Isambard-AI and DAWN", Run: Fig5},
	{ID: "fig6", Title: "Fig 6: AOCL vs OpenBLAS square DGEMV on LUMI (128 iterations)", Run: Fig6},
	{ID: "table5", Title: "Table V: first iteration count yielding a non-square GEMM threshold", Run: TableV},
	{ID: "table6", Title: "Table VI: first iteration count yielding a non-square GEMV threshold", Run: TableVI},
	{ID: "fig7", Title: "Fig 7: DAWN GPU SGEMM, implicit vs explicit scaling (32 iterations)", Run: Fig7},
	{ID: "flops-model", Title: "Ablation: exact vs approximated FLOP counts (§III-A)", Run: FlopsModel},
	{ID: "xnack", Title: "Ablation: LUMI USM with and without HSA_XNACK (§IV)", Run: Xnack},
	{ID: "stability", Title: "Ablation: threshold-detector stability under stride and noise (§III-D)", Run: Stability},
	{ID: "quirks", Title: "Ablation: offload thresholds with all library quirks removed", Run: QuirkAblation},
	{ID: "perfstat", Title: "§IV-B evidence: effective CPUs used by AOCL GEMV vs GEMM", Run: PerfStat},
}

// ErrUnknownID is the sentinel ByID wraps for an unregistered id.
var ErrUnknownID = errors.New("experiments: unknown id")

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("%w %q (have %v)", ErrUnknownID, id, ids)
}

// RunAll executes every registered experiment in order.
func RunAll(ctx context.Context, w io.Writer, opt Options) error {
	for _, e := range Registry {
		fmt.Fprintf(w, "=== %s (%s) ===\n", e.ID, e.Title)
		if err := e.Run(ctx, w, opt); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// writeArtifact saves content into opt.OutDir when set.
func writeArtifact(opt Options, name, content string) error {
	if opt.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.OutDir, name), []byte(content), 0o644)
}
