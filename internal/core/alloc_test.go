package core

import (
	"context"
	"testing"

	"repro/internal/sim/systems"
)

// TestRunProblemAllocs guards the sweep loop's allocation profile: a
// validation-off sweep allocates its Series and one exactly-sized
// Samples slice, and nothing per sample. It counts allocations, so it
// holds on any host.
func TestRunProblemAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count is calibrated without race-detector instrumentation")
	}
	pt, _ := FindProblem(GEMM, "square")
	cfg := DefaultConfig(8)
	cfg.Validate.Enabled = false
	sys := systems.DAWN()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunProblem(ctx, sys, pt, F64, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per sweep", allocs)
	if allocs > 2 {
		t.Fatalf("RunProblem allocates %.0f times per sweep, want <= 2 (Series + Samples)", allocs)
	}
}
