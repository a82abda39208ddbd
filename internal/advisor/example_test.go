package advisor_test

import (
	"fmt"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// ExampleAdvise asks the §III-D question directly from Go: should a group
// of 32 back-to-back SGEMM calls at {2048, 2048, 2048} be offloaded on the
// GH200, if the data is transferred once? The same decision is available
// over CSV via cmd/blob-advise and over HTTP via blob-served.
func ExampleAdvise() {
	v, err := advisor.Advise(systems.IsambardAI(), advisor.Call{
		Kernel: core.GEMM,
		M:      2048, N: 2048, K: 2048,
		Precision: core.F32,
		Count:     32,
		Strategy:  xfer.TransferOnce,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: offload=%v speedup=%.1fx\n", v.System, v.Offload, v.Speedup)
	// Output: Isambard-AI: offload=true speedup=8.3x
}
