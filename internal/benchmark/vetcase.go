package benchmark

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"

	"repro/internal/analysis"
	"repro/internal/analysis/blobvet"
	"repro/internal/analysis/load"
)

// blobvetCase tracks the wall-clock of one blob-vet analysis pass: all
// eight analyzers plus directive validation over internal/flops (a small,
// stable package, so the number tracks the analyzers' own cost rather
// than the target's churn). Loading and type-checking happen once in
// Prepare — the op measures pure analysis time, which is what grows when
// an analyzer gains an accidentally quadratic walk. The suite's
// regression gate (cmd/blob-bench -against) then catches a blob-vet
// slowdown the same way it catches a kernel slowdown.
func blobvetCase() Case {
	return Case{
		Name:  "analysis/blobvet/flops",
		Group: "analysis",
		Prepare: func(context.Context) (func() error, func(), error) {
			_, thisFile, _, ok := runtime.Caller(0)
			if !ok {
				return nil, nil, fmt.Errorf("cannot locate module root")
			}
			root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
			pkg, err := load.Dir(filepath.Join(root, "internal", "flops"), "repro/internal/flops")
			if err != nil {
				return nil, nil, fmt.Errorf("loading internal/flops: %w", err)
			}
			op := func() error {
				diags, err := blobvet.Analyze(pkg, analysis.All())
				if err != nil {
					return err
				}
				if len(diags) > 0 {
					return fmt.Errorf("%s: unexpected finding: %s", diags[0].Analyzer, diags[0].Message)
				}
				return nil
			}
			return op, func() {}, nil
		},
	}
}
