package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by tens of
// percent over tens of seconds, longer than one run. A figure taken on a
// slow stretch would read as a regression of the code. So every run also
// times fixed reference loops, in short slices interleaved with the work,
// and the end-to-end figures are reported at a nominal host speed: a rate
// is divided by the run's speed factor and a time multiplied by it. The
// reference loops are the benchmark's own code, so no change to the
// repository can move them; the raw figures are printed beside the
// normalized ones.

// refKind names a reference loop. A neighbour on the same core slows
// throughput-bound floating-point code more than latency-bound code, so
// each workload is normalized by the loop shaped like its own work.
type refKind int

const (
	// scalarRef is latency-bound: a dependent floating-point chain over an
	// array in L1 and a hash walk through a table in L2, like the sweeps,
	// the timing models and request handling.
	scalarRef refKind = iota
	// kernelRef is throughput-bound: sixteen independent multiply-add
	// chains over two panels in L1, like a GEMM micro-kernel.
	kernelRef
	numRefs
)

func (k refKind) String() string { return [...]string{"scalar", "kernel"}[k] }

// calibNominal is each reference loop's rate, in units per second, that
// counts as speed 1: the median measured on the 2-vCPU host the benchmark
// was built on.
var calibNominal = [numRefs]float64{scalarRef: 14500, kernelRef: 40000}

// calibrator runs the reference loops and keeps the rate of every slice.
type calibrator struct {
	fp, pa, pb []float64
	table      []uint32
	rates      [numRefs][]float64
	sink       float64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		fp: make([]float64, 2048), pa: make([]float64, 4*256), pb: make([]float64, 4*256),
		table: make([]uint32, 1<<14),
	}
	for i := range c.fp {
		c.fp[i] = float64(i%17) * 0.25
	}
	for i := range c.pa {
		c.pa[i], c.pb[i] = float64(i%13)*0.125, float64(i%11)*0.0625
	}
	for i := range c.table {
		c.table[i] = uint32(i*2654435761) >> 7
	}
	return c
}

// scalarUnit is one unit of scalarRef work, about 70 µs.
func (c *calibrator) scalarUnit() {
	s := c.sink
	for r := 0; r < 8; r++ {
		for _, x := range c.fp {
			s += x * 1.0000001
		}
	}
	h := uint64(s) | 1
	mask := uint64(len(c.table) - 1)
	for i := 0; i < 8192; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		h += uint64(c.table[h&mask])
	}
	c.sink = s*1e-300 + float64(h&1)
}

// kernelUnit is one unit of kernelRef work: a 4x4 block of C updated from
// a 4x256 panel of A and a 256x4 panel of B, eight times.
func (c *calibrator) kernelUnit() {
	var c00, c01, c02, c03, c10, c11, c12, c13 float64
	var c20, c21, c22, c23, c30, c31, c32, c33 float64
	pa, pb := c.pa, c.pb
	for r := 0; r < 8; r++ {
		for p := 0; p+3 < len(pa) && p+3 < len(pb); p += 4 {
			a0, a1, a2, a3 := pa[p], pa[p+1], pa[p+2], pa[p+3]
			b0, b1, b2, b3 := pb[p], pb[p+1], pb[p+2], pb[p+3]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
		}
	}
	sum := c00 + c01 + c02 + c03 + c10 + c11 + c12 + c13 + c20 + c21 + c22 + c23 + c30 + c31 + c32 + c33
	c.sink = c.sink*0.5 + sum*1e-300
}

// run times each reference loop for about d/numRefs and records its rate.
func (c *calibrator) run(d time.Duration) {
	for k := range numRefs {
		unit := c.scalarUnit
		if k == kernelRef {
			unit = c.kernelUnit
		}
		t0 := time.Now()
		n := 0
		for n == 0 || time.Since(t0) < d/time.Duration(numRefs) {
			unit()
			n++
		}
		c.rates[k] = append(c.rates[k], float64(n)/time.Since(t0).Seconds())
	}
}

// speed is the run's host speed factor by one reference loop: its median
// slice rate over its nominal rate. Above 1 the host ran faster than
// nominal.
func (c *calibrator) speed(k refKind) float64 {
	return percentile(c.rates[k], 50) / calibNominal[k]
}

func (c *calibrator) String() string {
	s := "host speed"
	for k := range numRefs {
		s += fmt.Sprintf(" %s %.4f (%.1f units/s median over %d slices, nominal %.1f)",
			k, c.speed(k), percentile(c.rates[k], 50), len(c.rates[k]), calibNominal[k])
	}
	return s
}

// calibSlice is the length of one reference slice, and calibEvery the
// stretch of work between two slices: workShare of a window is work and
// the rest goes to the reference loop.
const (
	calibSlice = 40 * time.Millisecond
	calibEvery = 200 * time.Millisecond
	workShare  = float64(calibEvery) / float64(calibEvery+calibSlice)
)

// ticker runs a reference slice whenever calibEvery has passed since the
// last one. Work loops call tick between operations, outside the
// operations' own timing, and subtract wall and cpu, the time spent in
// reference slices, from any stretch they time as a whole.
type ticker struct {
	c         *calibrator
	last      time.Time
	wall, cpu time.Duration
}

func (c *calibrator) ticker() *ticker { return &ticker{c: c, last: time.Now()} }

func (t *ticker) tick() {
	if time.Since(t.last) >= calibEvery {
		t.slice()
	}
}

func (t *ticker) slice() {
	w0, c0 := time.Now(), cpuTime()
	t.c.run(calibSlice)
	t.last = time.Now()
	t.wall += t.last.Sub(w0)
	t.cpu += cpuTime() - c0
}

// nominalExp says how each end-to-end figure scales with host speed: a
// rate as speed^1, a time as speed^-1. A figure not listed, such as the
// live heap, does not depend on it.
var nominalExp = map[string]float64{
	"ops_per_s":     1,
	"setup_s":       -1,
	"p50_ms":        -1,
	"p90_ms":        -1,
	"cpu_ms_per_op": -1,
}

// atNominal converts figures measured at the given host speed to the
// nominal speed. Names in asMeasured are kept as measured: an open loop's
// completed-request rate is the offered rate, whatever the host's speed.
func atNominal(raw map[string]float64, speed float64, asMeasured []string) map[string]float64 {
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if exp, ok := nominalExp[k]; ok && !slices.Contains(asMeasured, k) {
			v /= math.Pow(speed, exp)
		}
		out[k] = v
	}
	return out
}

// occupy keeps every CPU but one busy with kernelRef work until the
// returned stop is called, which waits for the work to end. A one-thread
// measurement then shares the machine the same way in every run: on the
// host this was built on, whether the other vCPU was idle or taken by
// another tenant moved a kernel's median call time by up to a third.
func occupy() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newCalibrator()
			for {
				select {
				case <-done:
					return
				default:
					c.kernelUnit()
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}
