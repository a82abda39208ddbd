package faultinject

import (
	"sync"
	"testing"
)

// TestEngineBudgetUnderConcurrency: goroutines sharing one engine spend a
// rule's hit budget exactly once between them, and the counters add up —
// the engine's state is reached from every backend of a run at once.
func TestEngineBudgetUnderConcurrency(t *testing.T) {
	const workers, calls = 4, 500
	e := NewEngine(1, []Selector{
		{Key1: "gpu", Probability: 1, MaxHits: 25},
		{Key1: "gpu", Probability: 0.5, Draw: true},
	})
	var wg sync.WaitGroup
	fired := make([][2]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				e.Next()
				rule, draw := e.Fire("gpu", "gemm", i)
				if rule >= 0 {
					fired[w][rule]++
				}
				if draw < 0 || draw >= 1 || (rule != 1 && draw != 0) {
					t.Errorf("rule %d drew %v", rule, draw)
				}
			}
		}(w)
	}
	wg.Wait()
	var first, second int
	for _, f := range fired {
		first += f[0]
		second += f[1]
	}
	evals, matches, counts := e.Counts()
	if first != 25 || counts[0] != 25 || uint64(second) != counts[1] {
		t.Fatalf("fired %d/%d, counts %v; want the 25-hit budget spent once", first, second, counts)
	}
	if evals != workers*calls || matches != uint64(workers*calls+workers*calls-first) {
		t.Fatalf("evaluations %d, matches %d", evals, matches)
	}
}
