package offload_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/offload"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// Example is the README's "Dispatch routing" snippet, compiled: build one
// long-lived dispatcher per system and route every BLAS call group
// through it. The first sighting of a shape evaluates the timing models;
// replays are answered from the memo map, and a call offloads only when
// the GPU wins by the stateless 10% margin.
func Example() {
	sys, err := systems.ByName("isambard-ai")
	if err != nil {
		panic(err)
	}
	d := offload.New(offload.Options{System: sys})
	ctx := context.Background()

	small, _ := d.Gemv(ctx, core.F64, 64, 64, 1, xfer.TransferAlways, false)
	big, _ := d.Gemm(ctx, core.F32, 4096, 4096, 4096, 32, xfer.TransferOnce, false)
	again, _ := d.Gemm(ctx, core.F32, 4096, 4096, 4096, 32, xfer.TransferOnce, false)

	fmt.Printf("gemv 64:   %s\n", small.Device)
	fmt.Printf("gemm 4096: %s (%.0fx)\n", big.Device, big.Speedup)
	fmt.Printf("replay:    %s cached=%v\n", again.Device, again.Cached)
	// Output:
	// gemv 64:   cpu
	// gemm 4096: gpu (8x)
	// replay:    gpu cached=true
}
