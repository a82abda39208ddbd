package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/bench_data"
	"repro/internal/flops"
	"repro/internal/resilience"
	"repro/internal/sim/efftab"
	"repro/internal/sim/gpumodel"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// Mode selects which devices a run exercises. The paper's default is
// interleaved CPU+GPU; LUMI required separate CPU-only and GPU-only builds
// because AOCL and hipcc are incompatible (§IV).
type Mode int

// Run modes.
const (
	ModeBoth Mode = iota
	ModeCPUOnly
	ModeGPUOnly
)

// String names the mode for CSV/CLI use.
func (m Mode) String() string {
	switch m {
	case ModeCPUOnly:
		return "cpu-only"
	case ModeGPUOnly:
		return "gpu-only"
	default:
		return "interleaved"
	}
}

// ModelKind selects where the performance models' efficiency curves come
// from: the analytic roofline formulas (the default, byte-identical to
// the pre-blackbox behaviour) or the measured efficiency tables under
// bench_data/.
type ModelKind int

// Model kinds.
const (
	// ModelRoofline uses the analytic occupancy-ramp formulas.
	ModelRoofline ModelKind = iota
	// ModelBlackbox interpolates measured/synthetic efficiency tables
	// (Config.EffTables, defaulting to the embedded bench_data/ set) and
	// skips library quirks; dispatch, transfers and USM stay analytic.
	ModelBlackbox
)

// String names the kind for CLI/CSV/hash use.
func (m ModelKind) String() string {
	if m == ModelBlackbox {
		return "blackbox"
	}
	return "roofline"
}

// ErrUnknownModel is the sentinel wrapped by ParseModelKind for
// unrecognized model tokens, so callers can errors.Is the condition
// instead of string-matching.
var ErrUnknownModel = errors.New("core: unknown model")

// ErrNoDims is the sentinel RunProblem wraps when a problem type has no
// Dims function to size its sweep.
var ErrNoDims = errors.New("has no Dims function")

// ParseModelKind resolves a -model CLI token.
func ParseModelKind(s string) (ModelKind, error) {
	switch s {
	case "", "roofline":
		return ModelRoofline, nil
	case "blackbox":
		return ModelBlackbox, nil
	}
	return ModelRoofline, fmt.Errorf("%w: %q (try roofline, blackbox)", ErrUnknownModel, s)
}

// Validation controls checksum validation (§III-B): the benchmark actually
// executes the kernel with two independent implementations (the optimized
// multi-threaded kernels standing in for the CPU library, the reference
// kernels for the GPU library) and compares checksums with the 0.1% margin.
type Validation struct {
	// Enabled turns real computation on. Timing always comes from the
	// models regardless.
	Enabled bool
	// Every validates one in Every samples (1 = all). Default 1.
	Every int
	// MaxFlops skips validation for problems above this per-iteration FLOP
	// count, bounding the wall-clock cost of a sweep. Default 64e6.
	MaxFlops int64
}

// DefaultValidation enables sampled validation with bounded cost.
func DefaultValidation() Validation {
	return Validation{Enabled: true, Every: 8, MaxFlops: 64e6}
}

// Resilience tunes how a sweep survives backend failures. The zero value
// preserves the historical behaviour exactly: one attempt per call, no
// checkpointing. None of these knobs changes what a successful sweep
// computes, so the block is deliberately excluded from Config.Hash —
// a retried run and a first-try run share a cache identity.
type Resilience struct {
	// MaxAttempts bounds attempts per modeled backend call (0 and 1 both
	// mean a single try, no retry). Only transient faults — errors whose
	// chain implements resilience.Transienter and answers true — are
	// retried; hard faults abort the sweep immediately.
	MaxAttempts int
	// BaseDelay and MaxDelay shape the full-jitter backoff between
	// retries. 0 retries immediately, the right setting for modeled work.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// CheckpointDir, when non-empty, persists sweep progress to a file in
	// that directory so an aborted sweep resumes from the last completed
	// size instead of restarting. The file is removed when the sweep
	// completes.
	CheckpointDir string
	// CheckpointEvery is how many recorded samples pass between
	// checkpoint writes (default 64). A checkpoint is also written when
	// the sweep aborts, whatever the cadence.
	CheckpointEvery int
}

// retryPolicy converts the plain-value knobs into a resilience policy.
func (r Resilience) retryPolicy() resilience.RetryPolicy {
	return resilience.RetryPolicy{
		MaxAttempts: r.MaxAttempts,
		BaseDelay:   r.BaseDelay,
		MaxDelay:    r.MaxDelay,
	}
}

// Config holds one sweep's runtime arguments, mirroring the artifact's CLI:
// -s (MinDim), -d (MaxDim), -i (Iterations).
type Config struct {
	MinDim, MaxDim int
	// Step strides the sweep parameter p; 1 reproduces the artifact's
	// "every possible combination" behaviour.
	Step        int
	Iterations  int
	Alpha, Beta float64
	Mode        Mode
	Validate    Validation
	// Model selects roofline (analytic, the default) or blackbox
	// (measured efficiency tables) mode for the timing models. The choice
	// changes every modeled number, so it is part of Config.Hash.
	Model ModelKind
	// EffTables supplies the tables blackbox mode consults; nil means the
	// committed bench_data/ set embedded in the binary. Ignored under
	// ModelRoofline. The tables' fingerprint is part of Config.Hash.
	EffTables *efftab.Set
	// LiveCPU, when non-nil, replaces the CPU timing model with real
	// wall-clock measurements of the repository's own BLAS kernels on the
	// host machine. The GPU side stays modeled.
	LiveCPU *LiveCPUTimer
	// Resilience governs retries and checkpointing; the zero value means
	// fail-fast with no checkpoint, the historical behaviour.
	Resilience Resilience
}

// DefaultConfig mirrors the paper's runs: s=1, d=4096, every size, α=1 β=0.
func DefaultConfig(iterations int) Config {
	return Config{
		MinDim:     1,
		MaxDim:     4096,
		Step:       1,
		Iterations: iterations,
		Alpha:      1,
		Beta:       0,
		Validate:   DefaultValidation(),
	}
}

func (c *Config) normalize() error {
	if c.MinDim < 1 {
		c.MinDim = 1
	}
	if c.MaxDim < c.MinDim {
		return fmt.Errorf("core: MaxDim %d < MinDim %d", c.MaxDim, c.MinDim)
	}
	if c.Step < 1 {
		c.Step = 1
	}
	if c.Iterations < 1 {
		c.Iterations = 1
	}
	if c.Validate.Every < 1 {
		c.Validate.Every = 1
	}
	if c.Validate.MaxFlops <= 0 {
		c.Validate.MaxFlops = 64e6
	}
	if c.Resilience.CheckpointEvery < 1 {
		c.Resilience.CheckpointEvery = 64
	}
	switch c.Model {
	case ModelRoofline:
		// Roofline never consults tables; drop any that were set so two
		// roofline configs differing only in EffTables stay one identity.
		c.EffTables = nil
	case ModelBlackbox:
		if c.EffTables == nil {
			set, err := benchdata.Default()
			if err != nil {
				return err
			}
			c.EffTables = set
		}
	default:
		return fmt.Errorf("core: unknown ModelKind %d", c.Model)
	}
	return nil
}

// NumStrategies is the number of transfer strategies every sample carries.
const NumStrategies = 3

// Sample is the measurement at one problem size.
type Sample struct {
	P            int
	Dims         Dims
	FlopsPerIter int64
	// CPU timing, total for all iterations. Series.Gflops turns it and
	// the GPU timings into rates.
	CPUSeconds float64
	// GPU timing per strategy, indexed by xfer.Strategy.
	GPUSeconds [NumStrategies]float64
	// Checksum validation results (only meaningful when Validated).
	Validated                bool
	ChecksumOK               bool
	CPUChecksum, GPUChecksum float64
	// Retries counts transient backend faults that were retried away while
	// measuring this size. 0 on a healthy run; never affects the timings,
	// which always come from a successful attempt.
	Retries int
}

// Threshold is a detected offload threshold.
type Threshold struct {
	Dims  Dims
	Found bool
}

// String prints the paper's notation, "—" when absent.
func (t Threshold) String() string {
	if !t.Found {
		return "—"
	}
	return t.Dims.String()
}

// Series is the result of sweeping one (system, problem type, precision,
// config) combination.
type Series struct {
	System     string
	CPULibrary string
	GPULibrary string
	Problem    ProblemType
	Precision  Precision
	Config     Config
	Samples    []Sample
	// Thresholds per transfer strategy (valid only for ModeBoth runs).
	Thresholds [NumStrategies]Threshold
}

// KernelName returns e.g. "SGEMM" for the series.
func (s *Series) KernelName() string { return KernelName(s.Precision, s.Problem.Kernel) }

// Gflops returns a sample's rates: the sample's FLOPs over all
// Config.Iterations divided by its CPU seconds and by each strategy's
// GPU seconds. A device the sweep did not run reads 0. The sweep stores
// only times; every rate a CSV, figure or example shows comes from here.
func (s *Series) Gflops(smp *Sample) (cpu float64, gpu [NumStrategies]float64) {
	total := int64(s.Config.Iterations) * smp.FlopsPerIter
	for st, sec := range smp.GPUSeconds {
		gpu[st] = flops.GFLOPS(total, sec)
	}
	return flops.GFLOPS(total, smp.CPUSeconds), gpu
}

// RunProblem sweeps one problem type on one system. Timing comes from the
// system's calibrated models; numerics are validated by really executing
// sampled problem sizes with two independent kernel implementations.
//
// Cancellation is checked between problem sizes: when ctx is done the
// sweep stops and the context's error is returned (wrapped), so a caller
// that hangs up — a disconnected HTTP client, a Ctrl-C — never pays for
// the rest of the sweep.
//
// Resilience: with cfg.Resilience.MaxAttempts > 1, transient backend
// faults (an armed faultinject plan; a flaky real backend) are retried
// per call with full-jitter backoff, counted in the sample's Retries.
// With CheckpointDir set, progress is persisted every CheckpointEvery
// samples and on any abort, and a matching checkpoint found at startup
// is resumed instead of recomputed — the detectors are rebuilt by
// replaying the saved samples, so a resumed sweep is indistinguishable
// from an uninterrupted one.
func RunProblem(ctx context.Context, sys systems.System, pt ProblemType, prec Precision, cfg Config) (*Series, error) {
	if ctx == nil {
		//blobvet:allow ctxflow: nil-ctx compatibility guard, not detachment — a caller that passed a real ctx keeps it
		ctx = context.Background()
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if pt.Dims == nil {
		return nil, fmt.Errorf("core: problem type %q %w", pt.Name, ErrNoDims)
	}
	if cfg.Model == ModelBlackbox {
		// sys is a value: arming the models' table pointers here is local
		// to this sweep and leaves the caller's System untouched.
		sys.CPU.Eff = cfg.EffTables.CPU
		sys.GPU.Eff = cfg.EffTables.GPU
	}
	ser := &Series{
		System:     sys.Name,
		CPULibrary: sys.CPU.Lib.Name,
		GPULibrary: sys.GPU.Lib.Name,
		Problem:    pt,
		Precision:  prec,
		Config:     cfg,
	}
	es := prec.ElemSize()
	beta0 := cfg.Beta == 0
	pol := cfg.Resilience.retryPolicy()
	var dets [NumStrategies]ThresholdDetector
	sampleIdx := 0
	startP := cfg.MinDim
	var ckpt *checkpointWriter
	if cfg.Resilience.CheckpointDir != "" {
		var err error
		ckpt, err = newCheckpointWriter(sys, pt, prec, cfg)
		if err != nil {
			return nil, err
		}
		if cp := ckpt.load(pt, cfg); cp != nil {
			ser.Samples = cp.Samples
			if cfg.Mode == ModeBoth {
				//blobvet:allow ctxflow -- replays a restored checkpoint prefix through the detectors: arithmetic over samples already in memory, no backend call to cancel
				for i := range ser.Samples {
					smp := &ser.Samples[i]
					for _, st := range xfer.Strategies {
						dets[st].ObserveTimes(smp.Dims, smp.CPUSeconds, smp.GPUSeconds[st])
					}
				}
			}
			sampleIdx = len(ser.Samples)
			startP = cp.NextP
		}
	}
	// Size the samples exactly once; a resumed sweep appends onto the
	// restored prefix.
	ser.Samples = slices.Grow(ser.Samples, sweepLen(pt, startP, cfg.Step, cfg.MaxDim))
	for p := startP; ; p += cfg.Step {
		if err := ctx.Err(); err != nil {
			ckpt.save(ser.Samples, p)
			return nil, fmt.Errorf("core: sweep cancelled at p=%d: %w", p, err)
		}
		d := pt.Dims(p)
		if d.MaxDim() > cfg.MaxDim {
			break
		}
		if !pt.valid(d) {
			continue
		}
		var fl int64
		if pt.Kernel == GEMM {
			fl = flops.Gemm(d.M, d.N, d.K, flops.Beta{IsZero: beta0})
		} else {
			fl = flops.Gemv(d.M, d.N, flops.Beta{IsZero: beta0})
		}
		// Fill the sample in place in the pre-sized slice: appending the
		// zero Sample clears the slot where it lies, while appending a
		// filled literal would build it aside and copy it in. Until it is
		// complete it stays out of every checkpoint (done, below).
		done := ser.Samples
		ser.Samples = append(ser.Samples, Sample{})
		smp := &ser.Samples[len(done)]
		smp.P, smp.Dims, smp.FlopsPerIter = p, d, fl

		// Each backend call's first attempt is a plain call; only a failed
		// one pays for resilience.Retry's closure and policy checks.
		if cfg.Mode != ModeGPUOnly {
			sec, err := cpuSeconds(&sys, cfg.LiveCPU, pt.Kernel, es, d, beta0, cfg.Iterations)
			if err != nil {
				err = resilience.Retry(ctx, pol, err, func() (e error) {
					sec, e = cpuSeconds(&sys, cfg.LiveCPU, pt.Kernel, es, d, beta0, cfg.Iterations)
					return e
				}, smp.countRetry)
			}
			if err != nil {
				ckpt.save(done, p)
				return nil, fmt.Errorf("core: cpu backend at p=%d after %d retries: %w", p, smp.Retries, err)
			}
			smp.CPUSeconds = sec
		}
		if cfg.Mode != ModeCPUOnly {
			// The device kernel is the same under every strategy: price it
			// once, then add each strategy's movement behind its own
			// fault sites.
			var bd gpumodel.Breakdown
			kernel, dim := "gemm", d.MaxDim() // the fault-injection sites
			if pt.Kernel == GEMM {
				bd = sys.GPU.GemmBreakdown(es, d.M, d.N, d.K, beta0, cfg.Iterations)
			} else {
				bd = sys.GPU.GemvBreakdown(es, d.M, d.N, beta0, cfg.Iterations)
				kernel, dim = "gemv", max(d.M, d.N)
			}
			for _, st := range xfer.Strategies {
				sec, err := sys.GPU.Time(bd, st, kernel, dim)
				if err != nil {
					err = resilience.Retry(ctx, pol, err, func() (e error) {
						sec, e = sys.GPU.Time(bd, st, kernel, dim)
						return e
					}, smp.countRetry)
				}
				if err != nil {
					ckpt.save(done, p)
					return nil, fmt.Errorf("core: gpu backend (%v) at p=%d after %d retries: %w", st, p, smp.Retries, err)
				}
				smp.GPUSeconds[st] = sec
			}
		}
		if cfg.Mode == ModeBoth {
			for _, st := range xfer.Strategies {
				dets[st].ObserveTimes(d, smp.CPUSeconds, smp.GPUSeconds[st])
			}
			if cfg.Validate.Enabled && fl <= cfg.Validate.MaxFlops && sampleIdx%cfg.Validate.Every == 0 {
				validate(smp, pt.Kernel, prec, cfg.Alpha, cfg.Beta)
			}
		}
		sampleIdx++
		if ckpt != nil && sampleIdx%cfg.Resilience.CheckpointEvery == 0 {
			ckpt.save(ser.Samples, p+cfg.Step)
		}
	}
	if cfg.Mode == ModeBoth {
		//blobvet:allow ctxflow -- three iterations over xfer.Strategies reading finished detectors
		for _, st := range xfer.Strategies {
			dims, found := dets[st].Threshold()
			ser.Thresholds[st] = Threshold{Dims: dims, Found: found}
		}
	}
	ckpt.remove()
	return ser, nil
}

// cpuSeconds prices one CPU call: a wall-clock measurement of the
// repository's own kernels when live is set, else the system's CPU
// model, whose fault sites may fail it.
func cpuSeconds(sys *systems.System, live *LiveCPUTimer, kernel KernelKind, es int, d Dims, beta0 bool, iters int) (float64, error) {
	switch {
	case live != nil && kernel == GEMM:
		return live.GemmSeconds(es, d.M, d.N, d.K, beta0, iters), nil
	case live != nil:
		return live.GemvSeconds(es, d.M, d.N, beta0, iters), nil
	case kernel == GEMM:
		return sys.CPU.TimeGemm(es, d.M, d.N, d.K, beta0, iters)
	default:
		return sys.CPU.TimeGemv(es, d.M, d.N, beta0, iters)
	}
}

// countRetry is the onRetry hook of a sample's backend calls.
func (s *Sample) countRetry(int, error) { s.Retries++ }

// valid reports whether RunProblem records a sample at d: every
// dimension the kernel uses is at least 1.
func (pt ProblemType) valid(d Dims) bool {
	return d.M >= 1 && d.N >= 1 && (pt.Kernel != GEMM || d.K >= 1)
}

// sweepLen counts the samples a sweep from startP records: the sizes
// RunProblem's loop visits up to maxDim and does not skip.
func sweepLen(pt ProblemType, startP, step, maxDim int) int {
	n := 0
	for p := startP; ; p += step {
		d := pt.Dims(p)
		if d.MaxDim() > maxDim {
			return n
		}
		if pt.valid(d) {
			n++
		}
	}
}

// Run sweeps a set of problem types at both precisions, returning one
// Series per (problem, precision) — the artifact's 28-CSV layout when given
// AllProblems(). Cancellation follows RunProblem: the first sweep that
// observes a done ctx aborts the whole run.
func Run(ctx context.Context, sys systems.System, problems []ProblemType, precisions []Precision, cfg Config) ([]*Series, error) {
	var out []*Series
	for _, pt := range problems {
		for _, prec := range precisions {
			ser, err := RunProblem(ctx, sys, pt, prec, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, ser)
		}
	}
	return out, nil
}

// ValidationFailures returns the samples whose checksum comparison failed.
func (s *Series) ValidationFailures() []Sample {
	var bad []Sample
	for _, smp := range s.Samples {
		if smp.Validated && !smp.ChecksumOK {
			bad = append(bad, smp)
		}
	}
	return bad
}

// ValidatedCount returns how many samples were validated.
func (s *Series) ValidatedCount() int {
	n := 0
	for _, smp := range s.Samples {
		if smp.Validated {
			n++
		}
	}
	return n
}
