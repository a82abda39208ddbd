package repro_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/advisor"
	"repro/internal/analysis/load"
	"repro/internal/benchmark"
	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/sim/systems"
)

// TestErrorSitesKeepTheirText triggers every exported error site that
// wraps a package sentinel and checks two things: the message is exactly
// the text callers and /v1 error bodies have always carried, and
// errors.Is finds the sentinel. DIR in a want stands for the test's
// temporary directory.
func TestErrorSitesKeepTheirText(t *testing.T) {
	dir := t.TempDir()
	artifact := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	call := advisor.Call{Kernel: core.GEMM, M: 1, N: 1, K: 1, Precision: core.F64, Count: 1}
	validate := func(mut func(*advisor.Call)) error {
		c := call
		mut(&c)
		return c.Validate()
	}
	rule := func(r faultinject.Rule) error {
		return (&faultinject.Plan{Rules: []faultinject.Rule{r}}).Validate()
	}
	full := &benchmark.Artifact{SchemaVersion: benchmark.SchemaVersion}
	cases := []struct {
		name     string
		err      func() error
		sentinel error
		want     string
	}{
		{"advisor gemm k", func() error { return validate(func(c *advisor.Call) { c.K = 0 }) },
			advisor.ErrGemmK, "advisor: gemm needs k >= 1, got 0"},
		{"advisor kernel", func() error { return validate(func(c *advisor.Call) { c.Kernel = 7 }) },
			advisor.ErrUnknownKernel, "advisor: unknown kernel GEMV"},
		{"advisor precision", func() error { return validate(func(c *advisor.Call) { c.Precision = 9 }) },
			advisor.ErrUnknownPrecision, "advisor: unknown precision D"},
		{"advisor dims", func() error { return validate(func(c *advisor.Call) { c.N = 0 }) },
			advisor.ErrDims, "advisor: dimensions must be >= 1, got m=1 n=0"},
		{"advisor count", func() error { return validate(func(c *advisor.Call) { c.Count = -1 }) },
			advisor.ErrCount, "advisor: count must be >= 1, got -1"},
		{"core precision", func() error { _, err := core.ParsePrecision("f16"); return err },
			core.ErrUnknownPrecision, `core: unknown precision "f16"`},
		{"core kernel", func() error { _, err := core.ParseKernelKind("trsm"); return err },
			core.ErrUnknownKernel, `core: unknown kernel "trsm"`},
		{"core problem", func() error { _, err := core.FindProblem(core.GEMV, "cube"); return err },
			core.ErrUnknownProblem, `core: unknown GEMV problem type "cube"`},
		{"core dims", func() error {
			_, err := core.RunProblem(context.Background(), systems.LUMI(), core.ProblemType{Name: "bare"}, core.F32, core.DefaultConfig(1))
			return err
		}, core.ErrNoDims, `core: problem type "bare" has no Dims function`},
		{"benchmark schema_version", func() error {
			_, err := benchmark.ReadArtifact(artifact("v2.json", `{"schema_version": 2}`))
			return err
		}, benchmark.ErrSchemaVersion, "benchmark: DIR/v2.json has schema_version 2, this binary reads 1"},
		{"benchmark artifact without cases", func() error {
			_, err := benchmark.ReadArtifact(artifact("empty.json", `{"schema_version": 1}`))
			return err
		}, benchmark.ErrNoCases, "benchmark: DIR/empty.json contains no cases"},
		{"benchmark run without cases", func() error {
			_, err := benchmark.Run(context.Background(), nil, benchmark.Options{}, nil)
			return err
		}, benchmark.ErrNoCases, "benchmark: no cases to run"},
		{"benchmark schema mismatch", func() error {
			_, err := benchmark.Compare(full, &benchmark.Artifact{SchemaVersion: 2}, 0)
			return err
		}, benchmark.ErrSchemaMismatch, "benchmark: schema mismatch: old v1 vs new v2"},
		{"benchmark smoke mismatch", func() error {
			_, err := benchmark.Compare(full, &benchmark.Artifact{SchemaVersion: 1, Smoke: true}, 0)
			return err
		}, benchmark.ErrSmokeMismatch, "benchmark: cannot compare a smoke artifact against a full one"},
		{"benchmark ns_per_op", func() error {
			a := &benchmark.Artifact{SchemaVersion: 1, Cases: []benchmark.CaseResult{{Name: "c"}}}
			_, err := benchmark.Compare(a, a, 0)
			return err
		}, benchmark.ErrNonPositiveNs, "benchmark: case c has a non-positive ns_per_op"},
		{"csvio device", func() error { _, err := csvio.Thresholds([]csvio.Row{{Device: "TPU"}}); return err },
			csvio.ErrUnknownDevice, `csvio: unknown device "TPU"`},
		{"experiments id", func() error { _, err := experiments.ByID("table2"); return err },
			experiments.ErrUnknownID, `experiments: unknown id "table2" (have [fig2 fig3 fig4 fig5 fig6 fig7 flops-model perfstat quirks stability table1 table3 table4 table5 table6 xnack])`},
		{"load dir", func() error { _, err := load.Dir(dir, "example.com/empty"); return err },
			load.ErrNoGoFiles, "no Go files in DIR"},
		{"faultinject kind", func() error { _, err := faultinject.ParseKind("flaky"); return err },
			faultinject.ErrUnknownKind, `faultinject: unknown fault kind "flaky"`},
		{"faultinject marshal", func() error { _, err := faultinject.Kind(9).MarshalJSON(); return err },
			faultinject.ErrMarshalKind, "faultinject: cannot marshal Kind(9)"},
		{"faultinject probability", func() error { return rule(faultinject.Rule{Probability: 2}) },
			faultinject.ErrBadRule, "faultinject: rule 0: probability 2 outside [0,1]"},
		{"faultinject dims", func() error { return rule(faultinject.Rule{MinDim: 9, MaxDim: 3}) },
			faultinject.ErrBadRule, "faultinject: rule 0: max_dim 3 < min_dim 9"},
		{"faultinject latency", func() error {
			return rule(faultinject.Rule{Kind: faultinject.Latency, LatencySeconds: -1})
		}, faultinject.ErrBadRule, "faultinject: rule 0: negative latency_seconds"},
		{"faultinject latency on hard", func() error {
			return rule(faultinject.Rule{Kind: faultinject.Hard, LatencySeconds: 1})
		}, faultinject.ErrBadRule, "faultinject: rule 0: latency_seconds set on a hard rule"},
		{"faultinject trailing data", func() error { _, err := faultinject.ParsePlan([]byte(`{"rules": []} {}`)); return err },
			faultinject.ErrBadPlan, "faultinject: bad plan: trailing data after plan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatal("no error")
			}
			if want := strings.ReplaceAll(tc.want, "DIR", dir); err.Error() != want {
				t.Errorf("error %q, want %q", err, want)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("errors.Is(%q, %q) is false", err, tc.sentinel)
			}
		})
	}
}
