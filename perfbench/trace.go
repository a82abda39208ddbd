package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Parent links a span to the span that
// caused it when the benchmark can see the cause; across an HTTP hop it
// cannot (no request ID crosses the wire yet), so those spans are linked
// by aggregate arithmetic instead (see clusterServe's gateway self time).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run and writes them out once,
// at exit, so recording costs an append under a lock and no I/O. A nil
// *tracer is the untraced run: every method is a no-op on it.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// record stores a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// begin reserves a span whose end is not known yet, so children recorded
// while it runs can name it as their parent. end closes it.
func (t *tracer) begin(name string, parent int64) int64 {
	now := time.Now()
	return t.record(name, parent, now, now)
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// named returns a copy of every span with the given name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs returns the durations of the named spans in milliseconds.
func (t *tracer) durationsMs(name string) []float64 {
	spans := t.named(name)
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.End-s.Start) / 1e6
	}
	return out
}

// totalNs sums the durations of the named spans.
func (t *tracer) totalNs(name string) int64 {
	var sum int64
	for _, s := range t.named(name) {
		sum += s.End - s.Start
	}
	return sum
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes the spans as JSON lines to path, creating its directory.
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
