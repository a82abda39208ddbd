package benchmark

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sim/efftab"
)

// countingCase builds a trivial case whose op appends its own name to the
// shared execution log, so tests can assert the interleaving order.
func countingCase(name string, log *[]string) Case {
	return Case{
		Name:  name,
		Group: "test",
		Prepare: func(context.Context) (func() error, func(), error) {
			return func() error {
				*log = append(*log, name)
				return nil
			}, nil, nil
		},
	}
}

// TestRunInterleaves is the §III-C contract: repetition r of every case
// runs before repetition r+1 of any case, warm-up repetitions included.
func TestRunInterleaves(t *testing.T) {
	var log []string
	cases := []Case{countingCase("a", &log), countingCase("b", &log), countingCase("c", &log)}
	opt := Options{Repetitions: 2, Warmup: 1}
	results, err := Run(context.Background(), cases, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"} // 1 warm-up + 2 recorded rounds
	if strings.Join(log, " ") != strings.Join(want, " ") {
		t.Errorf("execution order %v, want round-robin %v", log, want)
	}
	for _, r := range results {
		if r.Reps != 2 {
			t.Errorf("%s recorded %d reps, want 2 (warm-up must be discarded)", r.Name, r.Reps)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("%s ns_per_op = %g, want > 0", r.Name, r.NsPerOp)
		}
	}
}

// TestRunFilter restricts the suite by name and errors when nothing
// matches (an empty run must not produce an empty artifact silently).
func TestRunFilter(t *testing.T) {
	var log []string
	cases := []Case{countingCase("keep/me", &log), countingCase("drop/me", &log)}
	opt := Options{Repetitions: 1, Warmup: 0, Filter: regexp.MustCompile(`^keep/`)}
	results, err := Run(context.Background(), cases, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Name != "keep/me" {
		t.Errorf("results = %+v, want only keep/me", results)
	}

	opt.Filter = regexp.MustCompile(`matches-nothing`)
	if _, err := Run(context.Background(), cases, opt, nil); err == nil {
		t.Error("an all-filtered run must error, not return zero cases")
	}
}

// TestRunOpError: a failing repetition aborts the run with the case name
// and repetition index in the error, and still invokes every cleanup.
func TestRunOpError(t *testing.T) {
	boom := errors.New("boom")
	cleaned := 0
	var log []string
	cases := []Case{
		countingCase("healthy", &log),
		{
			Name:  "broken",
			Group: "test",
			Prepare: func(context.Context) (func() error, func(), error) {
				return func() error { return boom },
					func() { cleaned++ },
					nil
			},
		},
	}
	_, err := Run(context.Background(), cases, Options{Repetitions: 1, Warmup: 0}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %q does not name the failing case", err)
	}
	if cleaned != 1 {
		t.Errorf("cleanup ran %d times, want 1 even on abort", cleaned)
	}
}

// TestRunPrepareError: a failing Prepare aborts before any op runs.
func TestRunPrepareError(t *testing.T) {
	var log []string
	cases := []Case{
		{
			Name:  "unpreparable",
			Group: "test",
			Prepare: func(context.Context) (func() error, func(), error) {
				return nil, nil, errors.New("no operands")
			},
		},
		countingCase("never-runs", &log),
	}
	if _, err := Run(context.Background(), cases, Options{Repetitions: 1, Warmup: 0}, nil); err == nil {
		t.Fatal("Run accepted a case whose Prepare failed")
	}
	if len(log) != 0 {
		t.Errorf("ops ran %v despite a prepare failure", log)
	}
}

// TestRunCancel: context cancellation stops the run between repetitions.
func TestRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var log []string
	_, err := Run(ctx, []Case{countingCase("a", &log)}, Options{Repetitions: 1, Warmup: 0}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCommittedArtifactHostBlock: a committed BENCH artifact parses, and
// its host block decodes into efftab.Host with every field intact — the
// shared host type reads old artifacts unchanged.
func TestCommittedArtifactHostBlock(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_pr35.json")
	art, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	want := efftab.Host{OS: "linux", Arch: "amd64", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Hostname: "vm"}
	if art.Host != want {
		t.Fatalf("host block = %+v, want %+v", art.Host, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Host map[string]any `json:"host"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	enc, err := json.Marshal(art.Host)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, doc.Host) {
		t.Fatalf("host block does not round-trip: read %v, re-encoded %v", doc.Host, back)
	}
}

// TestArtifactRoundTrip: WriteFile then ReadArtifact preserves the suite
// results and stamps the self-describing fields.
func TestArtifactRoundTrip(t *testing.T) {
	var log []string
	opt := Options{Repetitions: 3, Warmup: 1}
	results, err := Run(context.Background(), []Case{countingCase("rt/case", &log)}, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	art := NewArtifact("unit", opt, results)
	if art.SchemaVersion != SchemaVersion || !art.Interleaved {
		t.Errorf("artifact not self-describing: %+v", art)
	}
	if art.Host.GOMAXPROCS < 1 || art.Host.GoVersion == "" {
		t.Errorf("host block incomplete: %+v", art.Host)
	}

	path := filepath.Join(t.TempDir(), "BENCH_unit.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tag != "unit" || back.Repetitions != 3 || back.Warmup != 1 {
		t.Errorf("round-trip lost run options: %+v", back)
	}
	if len(back.Cases) != 1 || back.Cases[0].Name != "rt/case" || back.Cases[0].Reps != 3 {
		t.Errorf("round-trip lost case results: %+v", back.Cases)
	}
}

// TestPercentileNearestRank pins the quantile convention: with ten sorted
// samples 1..10, p50 is the 5th value and p99 the 10th.
func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.50); got < 4.5 || got > 5.5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(sorted, 0.99); got < 9.5 {
		t.Errorf("p99 = %g, want 10", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

// TestSmokeDefaults: smoke mode means one repetition and no warm-up
// unless overridden — that is what keeps the verify.sh gate fast.
func TestSmokeDefaults(t *testing.T) {
	o := Options{Smoke: true}.withDefaults()
	if o.Repetitions != 1 || o.Warmup != 0 {
		t.Errorf("smoke defaults = %d reps / %d warmup, want 1 / 0", o.Repetitions, o.Warmup)
	}
	f := Options{}.withDefaults()
	if f.Repetitions != 10 || f.Warmup != 2 {
		t.Errorf("full defaults = %d reps / %d warmup, want 10 / 2", f.Repetitions, f.Warmup)
	}
}

// TestDefaultSuiteSmoke: the smoke suite prepares and runs end to end —
// this is the same path scripts/verify.sh exercises via blob-bench.
func TestDefaultSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real kernels and an httptest server")
	}
	opt := Options{Smoke: true}
	cases := DefaultSuite(opt)
	if len(cases) == 0 {
		t.Fatal("smoke suite is empty")
	}
	results, err := Run(context.Background(), cases, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.Name] {
			t.Errorf("duplicate case name %s (Compare matches by name)", r.Name)
		}
		seen[r.Name] = true
		if r.FlopsPerOp > 0 && r.GFlops <= 0 {
			t.Errorf("%s has flops but no GFLOP/s rate", r.Name)
		}
	}
	for _, group := range []string{"blas", "sweep", "advise", "service"} {
		found := false
		for _, r := range results {
			if r.Group == group {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("smoke suite has no %q cases", group)
		}
	}
}
