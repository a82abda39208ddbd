// gpu-blob is the GPU BLAS Offload Benchmark: it sweeps GEMM and GEMV
// problem types across a range of sizes on a simulated heterogeneous
// system, measures CPU and GPU (Transfer-Once / Transfer-Always / USM)
// performance, validates numerics by checksum, writes one CSV per kernel
// and problem type, and prints the GPU offload threshold tables.
//
// The flag names mirror the original artifact:
//
//	gpu-blob -i 8 -s 1 -d 4096 --system dawn
//
// runs all 28 (kernel, precision, problem-type) sweeps for 8 iterations on
// the DAWN model with sizes 1..4096. Use --experiment to regenerate a
// specific paper table or figure instead (table1, table3..table6, fig2..
// fig7, flops-model, xnack, perfstat, stability, quirks, or "all").
//
// The resilience flags make long sweeps survivable: -retries retries
// transient backend faults with full-jitter backoff, -checkpoint-dir
// persists progress so a killed sweep resumes from the last completed
// size (blob-threshold -checkpoint inspects the file), and -fault-plan
// arms a seeded fault-injection plan (DESIGN.md §11) to rehearse both.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gpu-blob:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		iters      = flag.Int("i", 8, "iterations per problem size")
		minDim     = flag.Int("s", 1, "minimum dimension (sweep start)")
		maxDim     = flag.Int("d", 4096, "maximum dimension (sweep upper limit)")
		step       = flag.Int("step", 1, "sweep stride (1 = every size)")
		alpha      = flag.Float64("alpha", 1, "GEMM/GEMV alpha")
		beta       = flag.Float64("beta", 0, "GEMM/GEMV beta")
		systemName = flag.String("system", "dawn", "system preset: "+strings.Join(systems.Names(), ", "))
		kernel     = flag.String("kernel", "all", "kernel filter: gemm, gemv or all")
		problem    = flag.String("problem", "", "problem type filter (e.g. square); empty = all")
		cpuOnly    = flag.Bool("cpu-only", false, "run the CPU side only (LUMI-style split build)")
		gpuOnly    = flag.Bool("gpu-only", false, "run the GPU side only (LUMI-style split build)")
		outDir     = flag.String("csv", "", "directory for CSV output (empty = none)")
		noValidate = flag.Bool("no-validate", false, "skip checksum validation")
		liveCPU    = flag.Bool("live-cpu", false, "measure the CPU side for real using this host and the built-in Go BLAS (GPU stays modeled)")
		liveReps   = flag.Int("live-repeats", 1, "with --live-cpu, measurement repeats per size (fastest kept)")
		experiment = flag.String("experiment", "", "regenerate a paper element instead of sweeping (see package doc); 'all' runs every one")
		list       = flag.Bool("list", false, "list available experiments and exit")

		retries   = flag.Int("retries", 0, "attempts per backend call for transient faults (0/1 = no retry)")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for sweep checkpoints; an aborted sweep resumes from the last completed size (empty = off)")
		ckptEvery = flag.Int("checkpoint-every", 0, "samples between checkpoint writes (0 = default 64)")
		faultPlan = flag.String("fault-plan", "", "seeded fault-injection plan (JSON file) to arm on the simulated backends — chaos mode")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return nil
	}
	// Ctrl-C cancels sweeps (and experiment regenerations) between problem
	// sizes instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *experiment != "" {
		// Experiments sweep many configurations; checksum validation is
		// covered by the main benchmark mode and by the test suite, so it
		// stays off here to keep table regeneration fast.
		opt := experiments.Options{Step: *step, MaxDim: *maxDim, OutDir: *outDir}
		if *experiment == "all" {
			return experiments.RunAll(ctx, os.Stdout, opt)
		}
		e, err := experiments.ByID(*experiment)
		if err != nil {
			return err
		}
		fmt.Printf("=== %s ===\n", e.Title)
		return e.Run(ctx, os.Stdout, opt)
	}

	sys, err := systems.ByName(*systemName)
	if err != nil {
		return err
	}
	cfg := core.Config{
		MinDim: *minDim, MaxDim: *maxDim, Step: *step,
		Iterations: *iters, Alpha: *alpha, Beta: *beta,
		Validate: core.DefaultValidation(),
		Resilience: core.Resilience{
			MaxAttempts:     *retries,
			CheckpointDir:   *ckptDir,
			CheckpointEvery: *ckptEvery,
		},
	}
	cfg.Validate.Enabled = !*noValidate
	var inj *faultinject.Injector
	if *faultPlan != "" {
		plan, err := faultinject.LoadPlan(*faultPlan)
		if err != nil {
			return fmt.Errorf("bad -fault-plan: %w", err)
		}
		inj = plan.Arm()
		sys.CPU.Inject = inj
		sys.GPU.Inject = inj
	}
	if *liveCPU {
		cfg.LiveCPU = &core.LiveCPUTimer{Repeats: *liveReps}
	}
	switch {
	case *cpuOnly && *gpuOnly:
		return fmt.Errorf("--cpu-only and --gpu-only are mutually exclusive")
	case *cpuOnly:
		cfg.Mode = core.ModeCPUOnly
	case *gpuOnly:
		cfg.Mode = core.ModeGPUOnly
	}

	problems, err := selectProblems(*kernel, *problem)
	if err != nil {
		return err
	}
	series, err := core.Run(ctx, sys, problems, []core.Precision{core.F32, core.F64}, cfg)
	if inj != nil {
		st := inj.Stats()
		fmt.Fprintf(os.Stderr, "fault injection: %d evaluations, %d transient, %d hard, %d latency, %d panic\n",
			st.Evaluations, st.Transients, st.Hards, st.Latencies, st.Panics)
	}
	if err != nil {
		return err
	}

	if *outDir != "" {
		paths, err := csvio.WriteAll(*outDir, series)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d CSV files to %s\n", len(paths), *outDir)
	}

	if cfg.Mode == core.ModeBoth {
		printThresholds(series)
		printValidation(series)
	} else {
		fmt.Printf("%s run complete: %d series, %d samples each direction; use blob-threshold to combine CPU and GPU CSVs\n",
			cfg.Mode, len(series), len(series[0].Samples))
	}
	return nil
}

func selectProblems(kernel, problem string) ([]core.ProblemType, error) {
	var pool []core.ProblemType
	switch strings.ToLower(kernel) {
	case "gemm":
		pool = core.GemmProblems
	case "gemv":
		pool = core.GemvProblems
	case "all", "":
		pool = core.AllProblems()
	default:
		return nil, fmt.Errorf("unknown kernel %q (gemm, gemv, all)", kernel)
	}
	if problem == "" {
		return pool, nil
	}
	var out []core.ProblemType
	for _, pt := range pool {
		if pt.Name == problem {
			out = append(out, pt)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no problem type named %q for kernel %q", problem, kernel)
	}
	return out, nil
}

func printThresholds(series []*core.Series) {
	fmt.Println("\nGPU offload thresholds:")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Kernel\tProblem\tDefinition\tOnce\tAlways\tUSM\n")
	for _, ser := range series {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n",
			ser.KernelName(), ser.Problem.Name, ser.Problem.Desc,
			ser.Thresholds[xfer.TransferOnce],
			ser.Thresholds[xfer.TransferAlways],
			ser.Thresholds[xfer.Unified])
	}
	tw.Flush()
}

func printValidation(series []*core.Series) {
	validated, failed := 0, 0
	for _, ser := range series {
		validated += ser.ValidatedCount()
		failed += len(ser.ValidationFailures())
	}
	if validated == 0 {
		return
	}
	fmt.Printf("\nchecksum validation: %d samples validated, %d failures (tolerance 0.1%%)\n", validated, failed)
	if failed > 0 {
		for _, ser := range series {
			for _, smp := range ser.ValidationFailures() {
				fmt.Printf("  FAIL %s %s %v cpu=%g gpu=%g\n",
					ser.KernelName(), ser.Problem.Name, smp.Dims, smp.CPUChecksum, smp.GPUChecksum)
			}
		}
	}
}
