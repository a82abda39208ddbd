package overload

import (
	"container/list"
	"math"
	"sync"
	"time"

	"repro/internal/resilience"
)

// fairShare is the per-client token-bucket table: every client (API key
// or remote host) refills at the same rate, so one client hammering cold
// sweeps exhausts its own bucket and gets 429s while everyone else's
// requests still reach the pool. The table is bounded LRU — an attacker
// minting client keys evicts its own oldest buckets, not the service's
// memory.
type fairShare struct {
	rate  float64 // tokens per second per client; <= 0 disables the layer
	burst float64
	clock resilience.Clock

	mu      sync.Mutex
	buckets map[string]*list.Element // client -> element holding *bucket
	order   *list.List               // front = most recently used
}

type bucket struct {
	client string
	tokens float64
	last   time.Time
}

// maxClients bounds the bucket table.
const maxClients = 1024

func newFairShare(rate float64, burst float64, clock resilience.Clock) *fairShare {
	if burst < 1 {
		burst = 1
	}
	return &fairShare{
		rate:    rate,
		burst:   burst,
		clock:   clock,
		buckets: map[string]*list.Element{},
		order:   list.New(),
	}
}

// allow spends one token from client's bucket, reporting whether it had
// one and, when it did not, how long until the next token refills — the
// Retry-After hint of the 429.
//
//blobvet:hotpath
func (f *fairShare) allow(client string) (ok bool, retryAfter time.Duration) {
	if f.rate <= 0 {
		return true, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.clock.Now()
	el, found := f.buckets[client]
	if !found {
		//blobvet:allow hotalloc: one bucket per new client, amortized over its whole session and bounded by the LRU table
		el = f.order.PushFront(&bucket{client: client, tokens: f.burst, last: now})
		f.buckets[client] = el
		for f.order.Len() > maxClients {
			oldest := f.order.Back()
			f.order.Remove(oldest)
			delete(f.buckets, oldest.Value.(*bucket).client)
		}
	}
	b := el.Value.(*bucket)
	f.order.MoveToFront(el)
	b.tokens = math.Min(f.burst, b.tokens+now.Sub(b.last).Seconds()*f.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration(math.Ceil((1 - b.tokens) / f.rate * float64(time.Second)))
}
