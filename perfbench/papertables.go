package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"repro/bench_data"
	"repro/internal/core"
	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// The paper-tables workload regenerates the threshold tables of the paper
// (Tables III-VI and their blackbox twins) as a closed batch: one
// sequential core.RunProblem per (system, problem type, precision,
// iteration count, model), swept s=1..d=4096 step 1 with validation off,
// as gpu-blob --experiment runs it. No kernel and no HTTP runs, so the
// sweep engine and the timing models do all the work.

var paperIterations = []int{1, 8, 32, 64, 128}

func paperSystems() []systems.System {
	return []systems.System{systems.DAWN(), systems.LUMI(), systems.IsambardAI()}
}

// sweepSpec is one cell of the grid.
type sweepSpec struct {
	sys   systems.System
	pt    core.ProblemType
	prec  core.Precision
	iters int
	model core.ModelKind
}

func (s sweepSpec) key() string {
	return fmt.Sprintf("%s|%s|%s|%s|i=%d|%s", s.sys.Name, s.pt.Kernel, s.pt.Name, s.prec, s.iters, s.model)
}

// paperGrid lists the 480 sweeps of one pass in canonical order: every
// problem type under the roofline model, and the two square types again
// under the blackbox model.
func paperGrid() []sweepSpec {
	var grid []sweepSpec
	for _, sys := range paperSystems() {
		for _, pt := range core.AllProblems() {
			for _, prec := range []core.Precision{core.F32, core.F64} {
				for _, it := range paperIterations {
					grid = append(grid, sweepSpec{sys, pt, prec, it, core.ModelRoofline})
					if pt.Name == "square" {
						grid = append(grid, sweepSpec{sys, pt, prec, it, core.ModelBlackbox})
					}
				}
			}
		}
	}
	return grid
}

// sweep runs one cell and returns its Once/Always/USM thresholds in the
// paper's notation and its sample count.
func (s sweepSpec) sweep(ctx context.Context) (verdict string, samples int, err error) {
	cfg := core.DefaultConfig(s.iters)
	cfg.Validate.Enabled = false
	cfg.Model = s.model
	ser, err := core.RunProblem(ctx, s.sys, s.pt, s.prec, cfg)
	if err != nil {
		return "", 0, err
	}
	parts := make([]string, len(xfer.Strategies))
	for i, st := range xfer.Strategies {
		parts[i] = st.String() + "=" + ser.Thresholds[st].String()
	}
	return strings.Join(parts, ";"), len(ser.Samples), nil
}

// golden is the committed record of every cell's thresholds, taken from
// the seed commit. The digest covers the sorted key=verdict lines.
type golden struct {
	Digest     string            `json:"digest"`
	Thresholds map[string]string `json:"thresholds"`
}

//go:embed golden/paper-tables.json
var goldenJSON []byte

func thresholdDigest(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, m[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordGolden runs one pass in canonical order and writes the golden file.
func recordGolden(path string) error {
	g := golden{Thresholds: map[string]string{}}
	for _, s := range paperGrid() {
		v, _, err := s.sweep(context.Background())
		if err != nil {
			return err
		}
		g.Thresholds[s.key()] = v
	}
	g.Digest = thresholdDigest(g.Thresholds)
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// paperSetup is everything built before the timed window.
type paperSetup struct {
	grid   []sweepSpec
	golden golden
}

func buildPaperSetup() (paperSetup, error) {
	var s paperSetup
	if err := json.Unmarshal(goldenJSON, &s.golden); err != nil {
		return s, fmt.Errorf("golden file: %w", err)
	}
	if _, err := benchdata.Default(); err != nil {
		return s, err
	}
	s.grid = paperGrid()
	// Warm-up: one sweep per (system, problem, precision, model), so code
	// paths, efftab lookups and the allocator are hot before timing.
	ctx := context.Background()
	for _, c := range s.grid {
		if c.iters != 8 {
			continue
		}
		if _, _, err := c.sweep(ctx); err != nil {
			return s, err
		}
	}
	return s, nil
}

// passCheck compares one pass's answers with the golden record and
// returns how many sweeps disagree. A pass whose digest differs from the
// golden digest fails as a whole: the table it produced is not the paper's.
func passCheck(g golden, got map[string]string) (failed int) {
	for k, v := range got {
		if g.Thresholds[k] != v {
			failed++
		}
	}
	if len(got) == len(g.Thresholds) && failed == 0 && thresholdDigest(got) != g.Digest {
		failed = len(got)
	}
	return failed
}

func paperTables(cfg config) (outcome, error) {
	setup, setupS, err := timeSetups(cfg.cal, buildPaperSetup, func(paperSetup) {})
	if err != nil {
		return outcome{}, err
	}
	ctx := context.Background()
	out := outcome{metrics: map[string]float64{}, layers: []string{"core.", "sim.", "runtime."}}

	// The untraced run measures whole passes until the window is used up,
	// so every run times the same mix of sweeps. The traced run measures a
	// fixed number of passes, so its counts repeat exactly.
	fixedPasses := 0
	if cfg.traced() {
		fixedPasses = max(1, int(cfg.seconds/3))
	}
	// Each pass is one repetition of the whole grid. Every figure rests on
	// each cell's median over passes, of its sweep time and of its CPU
	// time, so a burst of interference from the rest of the host that
	// lengthens a minority of sweeps does not move it. Reference slices run
	// between sweeps.
	cellMs := make([][]float64, len(setup.grid))
	cellCPU := make([][]float64, len(setup.grid))
	var samples int64
	samplesBy := map[core.ModelKind]int64{}
	tk := cfg.cal.ticker()
	gc0, alloc0, t0 := readGCClock(), readAllocClock(), time.Now()
	for pass := 0; ; pass++ {
		if fixedPasses > 0 && pass == fixedPasses {
			break
		}
		if fixedPasses == 0 && pass > 0 && time.Since(t0).Seconds() >= cfg.seconds {
			break
		}
		order := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(pass))).Perm(len(setup.grid))
		got := make(map[string]string, len(order))
		passID := cfg.tr.begin("core.pass", 0)
		for _, i := range order {
			c := setup.grid[i]
			start, cpu0 := time.Now(), cpuTime()
			v, n, err := c.sweep(ctx)
			end, cpu1 := time.Now(), cpuTime()
			if err != nil {
				return out, err
			}
			cfg.tr.record("core.sweep", passID, start, end)
			out.attempted++
			samples += int64(n)
			samplesBy[c.model] += int64(n)
			cellMs[i] = append(cellMs[i], ms(end.Sub(start)))
			cellCPU[i] = append(cellCPU[i], ms(cpu1-cpu0))
			got[c.key()] = v
			tk.tick()
		}
		cfg.tr.end(passID)
		out.failed += int64(passCheck(setup.golden, got))
	}
	elapsed := time.Since(t0) - tk.wall
	gc1, alloc1 := readGCClock(), readAllocClock()

	// A pass at every cell's median time and CPU gives the rate and the
	// CPU per sweep.
	sweepMs := make([]float64, len(cellMs))
	var passMs, passCPU float64
	for i := range cellMs {
		sweepMs[i] = percentile(cellMs[i], 50)
		passMs += sweepMs[i]
		passCPU += percentile(cellCPU[i], 50)
	}
	// The per-cell samples grow with the number of passes the window held;
	// dropped, they leave the live heap to the program.
	cellMs, cellCPU = nil, nil
	heap := liveHeapMB()
	out.e2e = map[string]float64{
		"setup_s":       setupS,
		"live_heap_mb":  heap,
		"ops_per_s":     float64(len(sweepMs)) / passMs * 1e3,
		"p50_ms":        percentile(sweepMs, 50),
		"p90_ms":        percentile(sweepMs, 90),
		"cpu_ms_per_op": passCPU / float64(len(sweepMs)),
	}
	cfg.logf("paper-tables: %d sweeps, %d samples in %.2fs: samples_per_s=%.0f (one sample = 1 CPU + 3 GPU model evaluations + 3 detector observations); GC share of CPU %s",
		out.attempted, samples, elapsed.Seconds(), float64(samples)/elapsed.Seconds(), gcFraction(gc0, gc1))
	if !cfg.traced() {
		return out, nil
	}

	m := out.metrics
	m["core.sweeps"] = float64(out.attempted)
	m["core.samples"] = float64(samples)
	m["core.samples_per_s"] = float64(samples) / elapsed.Seconds()
	m["core.sweep_ms.p50"] = percentile(sweepMs, 50)
	m["core.allocs_per_sample"] = float64(alloc1.mallocs-alloc0.mallocs) / float64(samples)
	m["core.bytes_per_sample"] = float64(alloc1.bytes-alloc0.bytes) / float64(samples)
	m["runtime.gc_cpu_fraction"] = gcFraction(gc0, gc1).value()

	probe := simProbe(setup.grid)
	m["sim.cpumodel.ns_per_call"] = probe.cpuNs
	m["sim.gpumodel.ns_per_call"] = probe.gpuNs
	m["sim.blackbox.ns_per_call"] = probe.blackboxNs
	m["core.detector.ns_per_observe"] = probe.observeNs
	// Model time inside the sweeps, priced at the probe's per-call cost:
	// one CPU and three GPU evaluations per sample.
	modelNs := (probe.cpuNs+3*probe.gpuNs)*float64(samplesBy[core.ModelRoofline]) +
		4*probe.blackboxNs*float64(samplesBy[core.ModelBlackbox])
	m["core.self_ns_per_sample"] = float64(selfNs(cfg.tr.totalNs("core.sweep"), int64(modelNs))) / float64(samples)
	return out, nil
}
