// Package parallel provides the shared-memory parallel building blocks used
// by the optimized BLAS kernels: static range partitioning and a reusable
// worker pool.
//
// The abstractions deliberately mirror the OpenMP knobs the paper's artifact
// is driven by (OMP_NUM_THREADS, BLIS_NUM_THREADS): a Pool has a fixed
// thread count, and For splits an iteration space statically, like OMP's
// schedule(static).
package parallel

import (
	"runtime"
	"sync"
)

//blobvet:file-allow locksafety: p.mu serializes whole For invocations (the OpenMP parallel-region model); the body calls and wg.Wait under it ARE the critical section, and the bodies are compute kernels that never re-enter the pool

// Range is a half-open interval [Lo, Hi) of loop iterations.
type Range struct {
	Lo, Hi int
}

// Len returns the number of iterations in r.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions [0, n) into at most parts contiguous ranges whose sizes
// differ by at most one. Fewer than parts ranges are returned when n < parts.
func Split(n, parts int) []Range {
	if parts < 1 {
		parts = 1
	}
	if n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([]Range, 0, parts)
	base, rem := n/parts, n%parts
	lo := 0
	for p := 0; p < parts; p++ {
		sz := base
		if p < rem {
			sz++
		}
		out = append(out, Range{lo, lo + sz})
		lo += sz
	}
	return out
}

// Pool is a fixed-size group of workers that executes data-parallel loops.
// A Pool is safe for sequential reuse; concurrent For calls on the same Pool
// are serialized by an internal mutex so kernels can share one pool.
type Pool struct {
	mu      sync.Mutex
	workers int
}

// NewPool returns a pool of n workers. n < 1 selects GOMAXPROCS workers.
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// For executes body over [0, n) split statically across the pool's workers.
// body receives the worker index and the sub-range it owns. For n below the
// worker count, only n workers run. The call returns when all workers finish.
func (p *Pool) For(n int, body func(worker int, r Range)) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ranges := Split(n, p.workers)
	if len(ranges) == 1 {
		body(0, ranges[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(ranges) - 1)
	for w := 1; w < len(ranges); w++ {
		go func(w int) {
			defer wg.Done()
			body(w, ranges[w])
		}(w)
	}
	body(0, ranges[0])
	wg.Wait()
}
