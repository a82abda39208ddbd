package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSplitCoversExactly(t *testing.T) {
	f := func(n, parts uint8) bool {
		rs := Split(int(n), int(parts))
		// Ranges must tile [0, n) exactly, in order, non-empty.
		next := 0
		for _, r := range rs {
			if r.Lo != next || r.Hi <= r.Lo {
				return false
			}
			next = r.Hi
		}
		return next == int(n) || (n == 0 && len(rs) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitBalance(t *testing.T) {
	rs := Split(10, 3)
	if len(rs) != 3 {
		t.Fatalf("want 3 ranges, got %d", len(rs))
	}
	sizes := []int{rs[0].Len(), rs[1].Len(), rs[2].Len()}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("unbalanced split: %v", sizes)
	}
}

func TestSplitFewerThanParts(t *testing.T) {
	rs := Split(2, 8)
	if len(rs) != 2 {
		t.Fatalf("n < parts should cap ranges at n, got %d", len(rs))
	}
}

func TestSplitDegenerate(t *testing.T) {
	if Split(0, 4) != nil {
		t.Fatal("n=0 should return nil")
	}
	if rs := Split(5, 0); len(rs) != 1 || rs[0] != (Range{0, 5}) {
		t.Fatalf("parts<1 should clamp to 1: %v", rs)
	}
}

func TestSplitNegativeN(t *testing.T) {
	if Split(-1, 4) != nil {
		t.Fatal("negative n must return nil")
	}
}

// rangesTileExactly reports whether rs is an in-order, gap-free,
// overlap-free tiling of [0, n) with no empty ranges.
func rangesTileExactly(rs []Range, n int) bool {
	next := 0
	for _, r := range rs {
		if r.Lo != next || r.Hi <= r.Lo {
			return false
		}
		next = r.Hi
	}
	return next == n
}

func TestSplitTilesExactly(t *testing.T) {
	f := func(n uint8, parts int8) bool {
		rs := Split(int(n), int(parts))
		if n == 0 {
			return rs == nil
		}
		return rangesTileExactly(rs, int(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoolForCoversAll(t *testing.T) {
	p := NewPool(4)
	const n = 1000
	hit := make([]int32, n)
	p.For(n, func(_ int, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			atomic.AddInt32(&hit[i], 1)
		}
	})
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestPoolForSmallN(t *testing.T) {
	p := NewPool(8)
	var count int32
	p.For(3, func(_ int, r Range) {
		atomic.AddInt32(&count, int32(r.Len()))
	})
	if count != 3 {
		t.Fatalf("covered %d of 3", count)
	}
	p.For(0, func(_ int, r Range) { t.Fatal("n=0 must not call body") })
}

func TestPoolWorkerIndicesDistinct(t *testing.T) {
	p := NewPool(4)
	seen := make(map[int]bool)
	var mu sync.Mutex
	p.For(4, func(w int, _ Range) {
		mu.Lock()
		seen[w] = true
		mu.Unlock()
	})
	if len(seen) != 4 {
		t.Fatalf("expected 4 distinct workers, saw %d", len(seen))
	}
	for w := range seen {
		if w < 0 || w >= 4 {
			t.Fatalf("worker index %d out of range", w)
		}
	}
}

func TestPoolSequentialReuse(t *testing.T) {
	p := NewPool(3)
	for iter := 0; iter < 50; iter++ {
		var sum int64
		p.For(100, func(_ int, r Range) {
			var local int64
			for i := r.Lo; i < r.Hi; i++ {
				local += int64(i)
			}
			atomic.AddInt64(&sum, local)
		})
		if sum != 4950 {
			t.Fatalf("iter %d: sum %d", iter, sum)
		}
	}
}

func TestPoolConcurrentForCalls(t *testing.T) {
	// Concurrent For calls on one pool must serialize, not interleave
	// incorrectly; both loops must fully cover their ranges.
	p := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum int64
			p.For(200, func(_ int, r Range) {
				var local int64
				for i := r.Lo; i < r.Hi; i++ {
					local += 1
				}
				atomic.AddInt64(&sum, local)
			})
			if sum != 200 {
				t.Errorf("concurrent For covered %d", sum)
			}
		}()
	}
	wg.Wait()
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Fatal("default pool must have >=1 worker")
	}
	if NewPool(-5).Workers() < 1 {
		t.Fatal("negative worker count must clamp")
	}
	if NewPool(3).Workers() != 3 {
		t.Fatal("explicit worker count")
	}
}
