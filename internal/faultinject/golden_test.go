package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// goldenPlan is the determinism fixture: backends, kernels, dim windows,
// a hit budget and every non-panic kind, with probabilities below 1 so
// the schedule consumes the seeded PRNG.
func goldenPlan() *Plan {
	return &Plan{
		Seed: 20260805,
		Rules: []Rule{
			{Backend: BackendGPU, Kernel: "gemm", MinDim: 64, MaxDim: 512, Probability: 0.4, Kind: Transient},
			{Backend: BackendXfer, Probability: 0.5, Kind: Latency, LatencySeconds: 0.002},
			{Backend: BackendCPU, Kernel: "gemv", Probability: 0.6, Kind: Hard, MaxHits: 2},
			{Kernel: "gemm", MinDim: 256, Probability: 0.3, Kind: Hard},
			{Backend: BackendUSM, MaxDim: 800, Probability: 1, Kind: Latency, LatencySeconds: 0.5, MaxHits: 3},
			{Probability: 0.1, Kind: Transient},
		},
	}
}

// goldenSequence drives a fixed site schedule and renders each outcome as
// "site:kind#seq" (latency as "site:+seconds", no fault as "site:-"),
// followed by the injector's final Stats.
func goldenSequence(in *Injector) string {
	backends := []string{BackendCPU, BackendGPU, BackendXfer, BackendUSM}
	var out []string
	for i := 0; i < 48; i++ {
		site := Site{Backend: backends[i%4], Kernel: "gemm", Dim: 32 * (i + 1)}
		if i%3 == 0 {
			site.Kernel = "gemv"
		}
		extra, err := in.At(site)
		var fe *Error
		switch {
		case errors.As(err, &fe):
			out = append(out, fmt.Sprintf("%v:%v#%d", site, fe.Kind, fe.Seq))
		case err != nil:
			out = append(out, fmt.Sprintf("%v:%v", site, err))
		case extra != 0:
			out = append(out, fmt.Sprintf("%v:+%g", site, extra))
		default:
			out = append(out, fmt.Sprintf("%v:-", site))
		}
	}
	return strings.Join(out, " ") + fmt.Sprintf(" | %+v", in.Stats())
}

// TestGoldenFaultStream pins the replayable-seed contract byte for byte:
// the same plan and site schedule fault the same sites with the same
// kinds and sequence numbers on every run. A diff here means the PRNG
// consumption changed — a contract change, not a test fix.
func TestGoldenFaultStream(t *testing.T) {
	const want = "" +
		"cpu/gemv@32:hard#1 gpu/gemm@64:transient#2 xfer/gemm@96:- usm/gemv@128:+0.5 cpu/gemm@160:- gpu/gemm@192:transient#6 " +
		"xfer/gemv@224:- usm/gemm@256:+0.5 cpu/gemm@288:- gpu/gemv@320:- xfer/gemm@352:- usm/gemm@384:+0.5 " +
		"cpu/gemv@416:hard#13 gpu/gemm@448:- xfer/gemm@480:hard#15 usm/gemv@512:- cpu/gemm@544:transient#17 gpu/gemm@576:- " +
		"xfer/gemv@608:+0.002 usm/gemm@640:- cpu/gemm@672:- gpu/gemv@704:- xfer/gemm@736:- usm/gemm@768:- " +
		"cpu/gemv@800:- gpu/gemm@832:- xfer/gemm@864:- usm/gemv@896:- cpu/gemm@928:hard#29 gpu/gemm@960:- " +
		"xfer/gemv@992:+0.002 usm/gemm@1024:- cpu/gemm@1056:hard#33 gpu/gemv@1088:transient#34 xfer/gemm@1120:- usm/gemm@1152:hard#36 " +
		"cpu/gemv@1184:- gpu/gemm@1216:- xfer/gemm@1248:+0.002 usm/gemv@1280:- cpu/gemm@1312:- gpu/gemm@1344:- " +
		"xfer/gemv@1376:- usm/gemm@1408:- cpu/gemm@1440:- gpu/gemv@1472:- xfer/gemm@1504:+0.002 usm/gemm@1536:- " +
		"| {Evaluations:48 Matches:84 Transients:4 Hards:6 Latencies:7 Panics:0}"
	first := goldenSequence(goldenPlan().Arm())
	if first != want {
		t.Fatalf("golden fault stream changed:\n got %s\nwant %s", first, want)
	}
	if second := goldenSequence(goldenPlan().Arm()); second != first {
		t.Fatalf("re-armed plan diverged:\n got %s\nwant %s", second, first)
	}
}
