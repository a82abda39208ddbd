// Package repro_test holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index). Each benchmark regenerates the corresponding paper
// element through the experiments registry; run a single one with e.g.
//
//	go test -bench 'BenchmarkTableIII$' -benchtime 1x
//
// and inspect the regenerated rows with -v via the experiment CLI instead:
//
//	go run ./cmd/gpu-blob --experiment table3
//
// The step/width knobs trade sweep resolution for benchmark runtime; the
// shapes (who wins, where the crossovers sit) are stable under them.
//
// These benchmarks delegate to internal/benchmark, the same harness behind
// cmd/blob-bench; EXPERIMENTS.md's benchmark index maps each one to the
// paper element it regenerates and the blob-bench case that gates it.
package repro_test

import (
	"testing"

	"repro/internal/benchmark"
	"repro/internal/experiments"
)

// benchOpt is the resolution used for the benchmark harness: a strided
// sweep keeps a full table regeneration inside a benchtime budget while
// preserving every qualitative result.
func benchOpt() experiments.Options {
	return experiments.Options{Step: 8, MaxDim: 4096}
}

// fullOpt is the paper-fidelity configuration (every size, d = 4096).
func fullOpt() experiments.Options {
	return experiments.Options{Step: 1, MaxDim: 4096}
}

func runExperiment(b *testing.B, id string, opt experiments.Options) {
	b.Helper()
	c, err := benchmark.ExperimentCase(id, opt)
	if err != nil {
		b.Fatal(err)
	}
	benchmark.RunB(b, c)
}

// BenchmarkSuiteSmoke runs the blob-bench standardized suite at smoke
// sizes under `go test -bench`, so the suite definition itself cannot rot:
// a case whose Prepare or op errors fails here without needing the CLI.
func BenchmarkSuiteSmoke(b *testing.B) {
	for _, c := range benchmark.DefaultSuite(benchmark.Options{Smoke: true}) {
		b.Run(c.Name, func(b *testing.B) { benchmark.RunB(b, c) })
	}
}

// BenchmarkTableI regenerates Table I (SGEMM run-times vs alpha/beta on
// five device/library pairs).
func BenchmarkTableI(b *testing.B) { runExperiment(b, "table1", benchOpt()) }

// BenchmarkTableIII regenerates Table III (square GEMM offload thresholds,
// 3 systems x 5 iteration counts x 3 strategies x 2 precisions).
func BenchmarkTableIII(b *testing.B) { runExperiment(b, "table3", benchOpt()) }

// BenchmarkTableIIIFull regenerates Table III at the paper's full
// resolution (every size 1..4096); thresholds are exact, not snapped to a
// stride.
func BenchmarkTableIIIFull(b *testing.B) { runExperiment(b, "table3", fullOpt()) }

// BenchmarkTableIV regenerates Table IV (square GEMV offload thresholds).
func BenchmarkTableIV(b *testing.B) { runExperiment(b, "table4", benchOpt()) }

// BenchmarkTableV regenerates Table V (first iteration count yielding a
// threshold, 8 non-square GEMM problem types x 3 systems x 2 precisions).
func BenchmarkTableV(b *testing.B) { runExperiment(b, "table5", benchOpt()) }

// BenchmarkTableVI regenerates Table VI (4 non-square GEMV problem types).
func BenchmarkTableVI(b *testing.B) { runExperiment(b, "table6", benchOpt()) }

// BenchmarkFig2 regenerates Fig 2 (square SGEMM curves, 1 iteration, DAWN).
func BenchmarkFig2(b *testing.B) { runExperiment(b, "fig2", benchOpt()) }

// BenchmarkFig3 regenerates Fig 3 (Isambard-AI CPU library comparison over
// the first 192 sizes).
func BenchmarkFig3(b *testing.B) { runExperiment(b, "fig3", experiments.Options{Step: 1}) }

// BenchmarkFig4 regenerates Fig 4 (square DGEMV curves, 1 iteration, all
// three systems).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4", benchOpt()) }

// BenchmarkFig5 regenerates Fig 5 (square SGEMV curves, 128 iterations,
// Isambard-AI and DAWN).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5", benchOpt()) }

// BenchmarkFig6 regenerates Fig 6 (AOCL vs OpenBLAS DGEMV on LUMI).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6", benchOpt()) }

// BenchmarkFig7 regenerates Fig 7 (implicit vs explicit scaling on DAWN).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7", benchOpt()) }

// BenchmarkFlopsModel regenerates the §III-A FLOP-model ablation.
func BenchmarkFlopsModel(b *testing.B) { runExperiment(b, "flops-model", benchOpt()) }

// BenchmarkXnack regenerates the HSA_XNACK USM ablation (§IV).
func BenchmarkXnack(b *testing.B) { runExperiment(b, "xnack", benchOpt()) }

// BenchmarkPerfStat regenerates the §IV-B effective-CPUs evidence.
func BenchmarkPerfStat(b *testing.B) { runExperiment(b, "perfstat", benchOpt()) }

// BenchmarkStability regenerates the threshold-detector stability ablation.
func BenchmarkStability(b *testing.B) { runExperiment(b, "stability", benchOpt()) }

// BenchmarkQuirks regenerates the clean-library counterfactual ablation.
func BenchmarkQuirks(b *testing.B) { runExperiment(b, "quirks", benchOpt()) }
