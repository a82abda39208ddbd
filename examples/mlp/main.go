// A multi-layer perceptron forward pass on the repository's kernels — the
// neural-network workload the paper's intro cites as a GEMM consumer (§I,
// §III-C). The batch dimension makes every layer a non-square GEMM
// {batch, width, width}, and inference re-issues the same weights for every
// batch: exactly the Transfer-Once, high-reuse pattern of §III-B2.
//
// The example runs the network in float32, times it on this host, and asks
// the offload models where each paper system would run the layers.
//
//	go run ./examples/mlp [-batch 256] [-width 512] [-layers 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

func main() {
	log.SetFlags(0)
	batch := flag.Int("batch", 256, "batch size")
	width := flag.Int("width", 512, "hidden width")
	layers := flag.Int("layers", 4, "hidden layers")
	batches := flag.Int("batches", 16, "number of batches (re-uses of the weights)")
	flag.Parse()

	b, w, nl := *batch, *width, *layers
	rng := matrix.NewRNG(3)

	// Weights: nl layers of w x w, He-style scaling so activations stay
	// bounded through ReLUs.
	scale := float32(math.Sqrt(2.0 / float64(w)))
	weights := make([][]float32, nl)
	for l := range weights {
		weights[l] = make([]float32, w*w)
		for i := range weights[l] {
			weights[l][i] = (rng.Float32()*2 - 1) * scale
		}
	}
	input := make([]float32, b*w)
	for i := range input {
		input[i] = rng.Float32()*2 - 1
	}

	// Forward pass: X_{l+1} = relu(X_l * W_l).
	forward := func() {
		x := append([]float32(nil), input...)
		y := make([]float32, b*w)
		for l := 0; l < nl; l++ {
			blas.OptSgemm(blas.NoTrans, blas.NoTrans, b, w, w, 1, x, b, weights[l], w, 0, y, b)
			for i := range y {
				if y[i] < 0 {
					y[i] = 0
				}
			}
			x, y = y, x
		}
	}

	start := time.Now()
	for i := 0; i < *batches; i++ {
		forward()
	}
	t32 := time.Since(start)

	flopsPerPass := 2 * float64(nl) * float64(b) * float64(w) * float64(w)
	fmt.Printf("network: %d layers of %d, batch %d  (%.1f MFLOPs per forward pass)\n",
		nl, w, b, flopsPerPass/1e6)
	fmt.Printf("float32 pass: %8.2f ms/batch on this host\n\n", t32.Seconds()/float64(*batches)*1e3)

	// Where would the paper's systems run one layer's GEMM?
	fmt.Printf("offload advice per layer GEMM {%d, %d, %d}, %d consecutive batches (Transfer-Once):\n",
		b, w, w, *batches)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "System\tCPU f32\tGPU f32\tVerdict\n")
	for _, sys := range systems.All() {
		cpu := sys.CPU.GemmSeconds(4, b, w, w, true, *batches)
		gpu := sys.GPU.GemmSeconds(xfer.TransferOnce, 4, b, w, w, true, *batches)
		verdict := "CPU"
		if gpu < cpu {
			verdict = "GPU"
		}
		fmt.Fprintf(tw, "%s\t%.2f ms\t%.2f ms\t%s\n", sys.Name, cpu*1e3, gpu*1e3, verdict)
	}
	tw.Flush()
}
