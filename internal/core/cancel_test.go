package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sim/systems"
)

// countdownCtx reports cancellation after its Err method has been asked n
// times, letting a test cancel deterministically in the middle of a sweep
// without goroutines or timing.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func TestRunProblemCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pt := GemmProblems[0]
	cfg := testConfig(1)
	_, err := RunProblem(ctx, systems.DAWN(), pt, F32, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunProblemCancelledMidSweep(t *testing.T) {
	pt := GemmProblems[0]
	cfg := testConfig(1)
	cfg.MaxDim = 64
	cfg.Step = 1
	cfg.Validate.Enabled = false

	// Sanity: the uncancelled sweep yields all 64 sizes.
	full, err := RunProblem(context.Background(), systems.DAWN(), pt, F32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Samples) != 64 {
		t.Fatalf("full sweep samples = %d", len(full.Samples))
	}

	ctx := &countdownCtx{Context: context.Background(), remaining: 10}
	ser, err := RunProblem(ctx, systems.DAWN(), pt, F32, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ser != nil {
		t.Fatalf("cancelled sweep must not return a partial series, got %d samples", len(ser.Samples))
	}
}

func TestRunCancelledPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testConfig(1)
	out, err := Run(ctx, systems.LUMI(), GemmProblems[:2], []Precision{F32}, cfg)
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("Run with cancelled ctx: out=%v err=%v", out, err)
	}
}

// A nil context is tolerated (treated as Background) so library callers
// predating the context plumbing cannot panic the sweep.
func TestRunProblemNilContext(t *testing.T) {
	pt := GemvProblems[0]
	cfg := testConfig(1)
	cfg.MaxDim = 16
	//nolint:staticcheck // deliberately exercising the nil-ctx guard
	ser, err := RunProblem(nil, systems.IsambardAI(), pt, F64, cfg)
	if err != nil || len(ser.Samples) == 0 {
		t.Fatalf("nil ctx: %v", err)
	}
}

// TestRunProblemCancelledDuringBackoff: the sweep checks its context once
// per sample, not before every backend attempt, so a cancellation that
// lands while a retrying call backs off must still abort the sweep — the
// backoff itself returns the context's error.
func TestRunProblemCancelledDuringBackoff(t *testing.T) {
	pt := GemmProblems[0]
	cfg := testConfig(1)
	cfg.Validate.Enabled = false
	cfg.Resilience = Resilience{MaxAttempts: 1000, BaseDelay: time.Hour}
	sys := systems.DAWN()
	sys.GPU.Inject = (&faultinject.Plan{Rules: []faultinject.Rule{
		{Backend: faultinject.BackendGPU, Probability: 1, Kind: faultinject.Transient},
	}}).Arm()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(10*time.Millisecond, cancel)
	ser, err := RunProblem(ctx, sys, pt, F32, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ser != nil {
		t.Fatal("cancelled sweep returned a series")
	}
}
