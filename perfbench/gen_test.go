package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/service"
)

func TestZipfKeysRepeatForASeed(t *testing.T) {
	a := zipfKeys(rand.New(rand.NewSource(7)), 1.2, 7680, 5000)
	b := zipfKeys(rand.New(rand.NewSource(7)), 1.2, 7680, 5000)
	c := zipfKeys(rand.New(rand.NewSource(8)), 1.2, 7680, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different keys")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds drew the same keys")
	}
	counts := map[int]int{}
	for _, k := range a {
		if k < 0 || k >= 7680 {
			t.Fatalf("key %d outside the keyspace", k)
		}
		counts[k]++
	}
	// Zipf: rank 0 is the hottest key and the top tenth of the keyspace
	// takes most of the draws.
	top := 0
	for k, n := range counts {
		if n > counts[0] {
			t.Errorf("key %d drawn %d times, more than rank 0 (%d)", k, n, counts[0])
		}
		if k < 768 {
			top += n
		}
	}
	if share := float64(top) / float64(len(a)); share < 0.8 {
		t.Errorf("top 768 keys took %.2f of the draws, want at least 0.8", share)
	}
}

func TestThresholdKeysRepeatForASeedAndAreDistinct(t *testing.T) {
	a := thresholdKeys(rand.New(rand.NewSource(3)), 2000)
	b := thresholdKeys(rand.New(rand.NewSource(3)), 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed built different keyspaces")
	}
	seen := map[service.ThresholdRequest]bool{}
	for _, k := range a {
		if seen[k] {
			t.Fatalf("duplicate key %+v", k)
		}
		seen[k] = true
		if k.Config.MaxDim < 512 || k.Config.MaxDim > 4096 {
			t.Errorf("max_dim %d outside [512, 4096]", k.Config.MaxDim)
		}
	}
}

func TestShapeSetRepeatsForASeedAndValidates(t *testing.T) {
	a := shapeSet(rand.New(rand.NewSource(5)), 384)
	b := shapeSet(rand.New(rand.NewSource(5)), 384)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed built different shape sets")
	}
	seen := map[any]bool{}
	for _, s := range a {
		if err := s.typed.Validate(); err != nil {
			t.Fatalf("shape %+v: %v", s.typed, err)
		}
		if seen[s.typed] {
			t.Fatalf("duplicate shape %+v", s.typed)
		}
		seen[s.typed] = true
	}
}

func TestMixRepeatsForASeedAndKeepsItsProportions(t *testing.T) {
	a := serveMix.requests(rand.New(rand.NewSource(11)), 20000)
	b := serveMix.requests(rand.New(rand.NewSource(11)), 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew a different request mix")
	}
	var kinds [numKinds]int
	direct := 0
	for _, q := range a {
		kinds[q.kind]++
		if q.direct {
			direct++
		}
		switch q.kind {
		case kindAdvise:
			if len(q.calls) < serveMix.adviseMin || len(q.calls) > serveMix.adviseMax {
				t.Fatalf("advise batch of %d calls", len(q.calls))
			}
		case kindDispatch:
			if len(q.calls) != serveMix.dispatchBatch || q.system == "" {
				t.Fatalf("dispatch batch of %d calls on %q", len(q.calls), q.system)
			}
		}
	}
	near := func(got int, want float64) bool { return math.Abs(float64(got)/20000-want) < 0.02 }
	if !near(kinds[kindThreshold], 0.70) || !near(kinds[kindAdvise], 0.15) || !near(kinds[kindDispatch], 0.15) {
		t.Errorf("mix %v of 20000, want about 70/15/15 %%", kinds)
	}
	if share := float64(direct) / float64(kinds[kindThreshold]); math.Abs(share-0.10) > 0.02 {
		t.Errorf("direct share %.3f of threshold requests, want about 0.10", share)
	}
}
