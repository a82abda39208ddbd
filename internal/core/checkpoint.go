package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/sim/systems"
	"repro/internal/sim/xfer"
)

// Checkpoint is the on-disk progress record of one interrupted sweep
// (DESIGN.md §11). Key identifies the sweep — system, problem, precision
// and the canonical Config hash joined with "|" — so a checkpoint is only
// ever resumed into the exact sweep that wrote it. NextP is the first
// sweep parameter value not yet completed; Samples are the completed
// measurements in ascending size order. Because the timing models are
// deterministic and JSON round-trips float64 exactly, resuming from a
// checkpoint produces byte-identical results to an uninterrupted run.
type Checkpoint struct {
	Key       string   `json:"key"`
	System    string   `json:"system"`
	Problem   string   `json:"problem"`
	Precision string   `json:"precision"`
	NextP     int      `json:"next_p"`
	Samples   []Sample `json:"samples"`
}

// CheckpointKey returns the identity a checkpoint is bound to.
func CheckpointKey(sys systems.System, pt ProblemType, prec Precision, cfg Config) (string, error) {
	h, err := cfg.Hash()
	if err != nil {
		return "", err
	}
	return strings.Join([]string{sys.Name, pt.Name, prec.String(), h}, "|"), nil
}

// CheckpointPath returns the file a sweep with the given key checkpoints
// to inside dir. The name embeds a hash of the key, so concurrent sweeps
// of different problems share a directory without colliding.
func CheckpointPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, "sweep-"+hex.EncodeToString(sum[:8])+".json")
}

// LoadCheckpoint reads and decodes one checkpoint file. It is exported
// for tooling (blob-threshold -checkpoint prints partial thresholds from
// one); RunProblem loads its own checkpoints internally.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	return &cp, nil
}

// PartialThresholds runs the threshold detectors over the checkpointed
// samples, returning the per-strategy verdicts as of the interruption
// point. They are provisional: a later CPU win would invalidate them.
func (cp *Checkpoint) PartialThresholds() [NumStrategies]Threshold {
	var out [NumStrategies]Threshold
	for _, st := range xfer.Strategies {
		var det ThresholdDetector
		for _, smp := range cp.Samples {
			det.ObserveTimes(smp.Dims, smp.CPUSeconds, smp.GPUSeconds[st])
		}
		dims, found := det.Threshold()
		out[st] = Threshold{Dims: dims, Found: found}
	}
	return out
}

// checkpointWriter manages one sweep's checkpoint file. A nil writer
// (checkpointing disabled) is valid and makes every method a no-op.
type checkpointWriter struct {
	path      string
	key       string
	system    string
	problem   string
	precision string
}

func newCheckpointWriter(sys systems.System, pt ProblemType, prec Precision, cfg Config) (*checkpointWriter, error) {
	key, err := CheckpointKey(sys, pt, prec, cfg)
	if err != nil {
		return nil, err
	}
	return &checkpointWriter{
		path:      CheckpointPath(cfg.Resilience.CheckpointDir, key),
		key:       key,
		system:    sys.Name,
		problem:   pt.Name,
		precision: prec.String(),
	}, nil
}

// load returns the checkpoint to resume from, or nil when there is none.
func (w *checkpointWriter) load(pt ProblemType, cfg Config) *Checkpoint {
	if w == nil {
		return nil
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		return nil
	}
	return w.accept(data, pt, cfg)
}

// accept decodes a checkpoint file's bytes and returns the progress to
// resume from. A file bound to a different key (corruption, a hash
// collision), or one whose progress this sweep could not have written,
// yields nil: it is ignored rather than trusted, and the sweep starts
// from scratch.
func (w *checkpointWriter) accept(data []byte, pt ProblemType, cfg Config) *Checkpoint {
	var cp Checkpoint
	if json.Unmarshal(data, &cp) != nil || cp.Key != w.key || !cp.prefixOf(pt, cfg) {
		return nil
	}
	return &cp
}

// prefixOf reports whether cp is progress the sweep of pt under cfg
// saves: NextP is one of the sweep's parameter values, at most the first
// one past MaxDim, and the samples' P and Dims are exactly the sizes the
// sweep records before it, in order. The walk stops at MaxDim, so a huge
// NextP costs no more than one sweep's sizes.
func (cp *Checkpoint) prefixOf(pt ProblemType, cfg Config) bool {
	i := 0
	for p := cfg.MinDim; ; p += cfg.Step {
		if p == cp.NextP {
			return i == len(cp.Samples)
		}
		d := pt.Dims(p)
		if d.MaxDim() > cfg.MaxDim {
			return false
		}
		if !pt.valid(d) {
			continue
		}
		if i == len(cp.Samples) || cp.Samples[i].P != p || cp.Samples[i].Dims != d {
			return false
		}
		i++
	}
}

// save atomically writes progress: completed samples plus the next sweep
// parameter to process. Write failures are swallowed — a checkpoint is an
// optimisation, and failing the sweep over one would invert the feature.
func (w *checkpointWriter) save(samples []Sample, nextP int) {
	if w == nil {
		return
	}
	cp := Checkpoint{
		Key:       w.key,
		System:    w.system,
		Problem:   w.problem,
		Precision: w.precision,
		NextP:     nextP,
		Samples:   samples,
	}
	data, err := json.Marshal(&cp)
	if err != nil {
		return
	}
	tmp := w.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, w.path); err != nil {
		_ = os.Remove(tmp)
	}
}

// remove deletes the checkpoint after a completed sweep.
func (w *checkpointWriter) remove() {
	if w == nil {
		return
	}
	if err := os.Remove(w.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		// Nothing actionable: the stale file is keyed to this exact sweep
		// and will be overwritten or resumed harmlessly next time.
		_ = err
	}
}
