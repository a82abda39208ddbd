// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the system only through the public functions of
// each layer, in three workloads that stress different layers:
//
//	paper-tables   the sweep engine and timing models (no kernels, no HTTP)
//	live-blas      the pure-Go BLAS kernels, one thread
//	cluster-serve  client -> gateway -> replica -> admission -> pool -> sweep
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics BENCHMARK.json declares, at a nominal host speed
// (see calib.go); with --trace 1 the run
// records spans around every layer call, writes them under .bench_build/,
// and reports the per-layer metrics instead. See perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/blas"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	tr      *tracer // nil in the untraced run
	cal     *calibrator
	host    hostInfo
	log     io.Writer // human-readable report lines
}

func (c config) traced() bool { return c.tr != nil }

func (c config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, format+"\n", args...)
}

// outcome is what a workload returns.
type outcome struct {
	attempted, failed int64
	// e2e holds the end-to-end figures as measured; ref names the reference
	// loop they are normalized by, and asMeasured those that do not scale
	// with host speed (see atNominal).
	e2e        map[string]float64
	ref        refKind
	asMeasured []string
	// metrics holds the per-layer figures of a traced run.
	metrics map[string]float64
	// layers lists the per-layer metric prefixes the workload exercises.
	// A declared per-layer metric outside them is reported as 0, with a
	// note, because that layer is not on this workload's path.
	layers []string
}

type workload func(cfg config) (outcome, error)

var workloads = map[string]workload{
	"paper-tables":  paperTables,
	"live-blas":     liveBLAS,
	"cluster-serve": clusterServe,
}

// declared is the part of BENCHMARK.json the program checks itself
// against: every metric it must print, with its unit.
type declared struct {
	Workloads []named      `json:"workloads"`
	EndToEnd  []metricDecl `json:"end_to_end"`
	PerLayer  []metricDecl `json:"per_layer"`
}

type named struct {
	Name string `json:"name"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-tables, live-blas or cluster-serve")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	writeGolden := fs.String("write-golden", "", "record the paper-tables threshold golden file at this path and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeGolden != "" {
		return recordGolden(*writeGolden)
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	if !slices.ContainsFunc(decl.Workloads, func(d named) bool { return d.Name == *name }) {
		return fmt.Errorf("workload %q is not declared in BENCHMARK.json", *name)
	}

	cfg := config{seed: *seed, seconds: *seconds, tr: newTracer(*trace == 1), cal: newCalibrator(), log: stdout}
	// The headline kernel numbers are one-thread numbers on every host.
	blas.SetThreads(1)
	cfg.host = probeHost()
	runtime.GC() // drop the triad arrays before the workload allocates
	hb, _ := json.Marshal(cfg.host)
	cfg.logf("host %s", hb)

	out, err := w(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	speed := cfg.cal.speed(out.ref)
	e2e := atNominal(out.e2e, speed, out.asMeasured)
	cfg.logf("%s; %s normalizes this workload", cfg.cal, out.ref)
	for _, k := range sortedKeys(e2e) {
		cfg.logf("end-to-end %-16s %12.6g at nominal host speed, %12.6g as measured", k, e2e[k], out.e2e[k])
	}
	want := decl.EndToEnd
	if !cfg.traced() {
		out.metrics = e2e
	} else {
		want = decl.PerLayer
		for k, v := range e2e {
			out.metrics["traced."+k] = v
		}
		out.metrics["host.speed"] = speed
		out.metrics["trace.spans"] = float64(cfg.tr.count())
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := cfg.tr.writeFile(path); err != nil {
			return err
		}
		cfg.logf("spans written to %s", path)
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	var offPath []string
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok {
			if !cfg.traced() || onPath(m.Name, append(out.layers, "host.", "traced.", "trace.")) {
				return fmt.Errorf("metric %q declared in BENCHMARK.json was not measured", m.Name)
			}
			offPath = append(offPath, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(offPath) > 0 {
		cfg.logf("not measured on this workload, reported as 0: %s", strings.Join(offPath, " "))
	}
	if cfg.traced() {
		for _, k := range sortedKeys(out.metrics) {
			cfg.logf("metric %-44s %.6g", k, out.metrics[k])
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// onPath reports whether a per-layer metric belongs to a layer the workload
// exercises.
func onPath(name string, layers []string) bool {
	for _, l := range layers {
		if strings.HasPrefix(name, l) {
			return true
		}
	}
	return false
}

func loadDeclared(path string) (declared, error) {
	var d declared
	b, err := os.ReadFile(path)
	if err != nil {
		return d, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUTime is the calling thread's user+system CPU time so far; the
// caller must be locked to its OS thread (runtime.LockOSThread).
func threadCPUTime() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD on Linux
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MB (1e6
// bytes): what the program still holds, not a sampled peak.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// gcClock reads the cumulative GC CPU seconds and total CPU seconds the
// runtime has accounted; the difference of two readings gives the share
// of a window's CPU that went to garbage collection.
type gcClock struct{ gc, total float64 }

func readGCClock() gcClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c gcClock
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// gcFraction is the GC share of CPU between two readings, with its base.
func gcFraction(a, b gcClock) ratio { return ratio{num: b.gc - a.gc, den: b.total - a.total} }

// allocClock reads cumulative allocation counters for per-operation
// allocation metrics.
type allocClock struct{ mallocs, bytes uint64 }

func readAllocClock() allocClock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocClock{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// setupReps is how many times each workload builds its set-up; setup_s is
// the median, so one slow page-fault storm does not move it.
const setupReps = 9

// timeSetups runs build setupReps times, tearing down all but the last
// result, and returns the kept result and the median build time. A
// reference slice before each build samples the host's speed during
// set-up.
func timeSetups[T any](cal *calibrator, build func() (T, error), teardown func(T)) (T, float64, error) {
	var kept T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		cal.run(calibSlice)
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return kept, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupReps-1 {
			teardown(v)
			runtime.GC()
			continue
		}
		kept = v
	}
	return kept, percentile(times, 50), nil
}
