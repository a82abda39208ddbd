package overload

import (
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock shared by the package's tests.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func (c *fakeClock) Clock() func() time.Time { return func() time.Time { return c.now } }

func TestLimiterFixedWithoutTarget(t *testing.T) {
	l := NewLimiter(LimiterConfig{Min: 1, Max: 3})
	for i := 0; i < 3; i++ {
		if !l.TryAcquire() {
			t.Fatalf("acquire %d refused below the limit", i)
		}
	}
	if l.TryAcquire() {
		t.Fatal("acquire beyond Max admitted")
	}
	l.Release(time.Hour) // no Target: latency must not move the limit
	if got := l.Limit(); got != 3 {
		t.Fatalf("limit = %d after slow completion without target, want 3", got)
	}
}

// TestLimiterAIMD drives the AIMD loop in virtual time: latency over the
// target halves the limit (once per cooldown), latency under it climbs
// back one slot per limit's worth of completions.
func TestLimiterAIMD(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterConfig{
		Min: 1, Max: 8,
		Target:   100 * time.Millisecond,
		Cooldown: time.Second,
		Clock:    clk.Clock(),
	})
	if got := l.Limit(); got != 8 {
		t.Fatalf("initial limit = %d, want Max 8", got)
	}

	// One slow completion: multiplicative decrease to 4.
	if !l.TryAcquire() {
		t.Fatal("acquire refused")
	}
	l.Release(500 * time.Millisecond)
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit after one overshoot = %d, want 4", got)
	}

	// A second overshoot inside the cooldown is one congestion event, not
	// two: the limit must hold at 4.
	clk.Advance(100 * time.Millisecond)
	l.TryAcquire()
	l.Release(500 * time.Millisecond)
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit inside cooldown = %d, want 4", got)
	}

	// Past the cooldown the next overshoot halves again.
	clk.Advance(2 * time.Second)
	l.TryAcquire()
	l.Release(500 * time.Millisecond)
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit after cooldown overshoot = %d, want 2", got)
	}

	// Healthy completions recover additively: from 2.0, four fast
	// completions add 1/2 + ~1/2.5 + ... — the limit must strictly grow
	// and eventually reach Max again.
	for i := 0; i < 200; i++ {
		l.TryAcquire()
		l.Release(10 * time.Millisecond)
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("limit after recovery = %d, want Max 8", got)
	}
}

func TestLimiterNeverBelowMin(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterConfig{Min: 2, Max: 4, Target: time.Millisecond, Cooldown: time.Millisecond, Clock: clk.Clock()})
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		l.TryAcquire()
		l.Release(time.Hour)
	}
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit = %d, want floor 2", got)
	}
	// The floor still admits work.
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("floor slots refused")
	}
	if l.TryAcquire() {
		t.Fatal("admitted beyond the floor")
	}
}

func TestLimiterDeterministic(t *testing.T) {
	run := func() []int {
		clk := newFakeClock()
		l := NewLimiter(LimiterConfig{Min: 1, Max: 6, Target: 50 * time.Millisecond, Cooldown: 200 * time.Millisecond, Clock: clk.Clock()})
		var limits []int
		lat := []time.Duration{10, 80, 20, 120, 30, 30, 200, 10}
		for i, ms := range lat {
			clk.Advance(time.Duration(i%3) * 100 * time.Millisecond)
			l.TryAcquire()
			l.Release(ms * time.Millisecond)
			limits = append(limits, l.Limit())
		}
		return limits
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at step %d: %v vs %v", i, a, b)
		}
	}
}
