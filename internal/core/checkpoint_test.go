package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/sim/systems"
)

// fixtureCheckpoint is a checkpoint an earlier Sample layout wrote: its
// samples still carry the CPUGflops and GPUGflops fields the sweep no
// longer stores. It is the abort save of fixtureSweep, cancelled after
// its 14th sample (P=40), so it resumes at next_p 43.
const fixtureCheckpoint = "testdata/checkpoint-gflops-fields.json"

// fixtureSweep returns the sweep fixtureCheckpoint belongs to: LUMI
// square SGEMM, 8 iterations, p = 1, 4, ... up to d=96, validation off
// so every stored number is modeled and host-independent.
func fixtureSweep(dir string) (systems.System, ProblemType, Config) {
	pt, _ := FindProblem(GEMM, "square")
	cfg := DefaultConfig(8)
	cfg.MaxDim = 96
	cfg.Step = 3
	cfg.Validate.Enabled = false
	cfg.Resilience.CheckpointDir = dir
	cfg.Resilience.CheckpointEvery = 4
	return systems.LUMI(), pt, cfg
}

// placeCheckpoint writes data where the sweep looks for its checkpoint.
func placeCheckpoint(t testing.TB, sys systems.System, pt ProblemType, cfg Config, data []byte) {
	t.Helper()
	key, err := CheckpointKey(sys, pt, F32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(CheckpointPath(cfg.Resilience.CheckpointDir, key), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// failBelowResume makes every GPU call at a size the fixture already
// covers (dim <= 40) fail hard, so a sweep that restarts instead of
// resuming cannot complete.
func failBelowResume(sys systems.System) systems.System {
	sys.GPU.Inject = (&faultinject.Plan{Rules: []faultinject.Rule{
		{Backend: faultinject.BackendGPU, MaxDim: 40, Probability: 1, Kind: faultinject.Hard},
	}}).Arm()
	return sys
}

// TestCheckpointResumesOldSampleFields: the committed fixture, written
// with the GFLOP/s fields, resumes into a series byte-identical to a
// sweep that was never interrupted.
func TestCheckpointResumesOldSampleFields(t *testing.T) {
	data, err := os.ReadFile(fixtureCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	sys, pt, cfg := fixtureSweep(t.TempDir())
	clean, err := RunProblem(context.Background(), sys, pt, F32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	placeCheckpoint(t, sys, pt, cfg, data)
	resumed, err := RunProblem(context.Background(), failBelowResume(sys), pt, F32, cfg)
	if err != nil {
		t.Fatalf("fixture did not resume: %v", err)
	}
	if resumed.Thresholds != clean.Thresholds {
		t.Fatalf("resumed thresholds %v != clean %v", resumed.Thresholds, clean.Thresholds)
	}
	cb, err := json.Marshal(clean.Samples)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(resumed.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if string(cb) != string(rb) {
		t.Fatal("samples resumed from the fixture differ from an uninterrupted sweep")
	}
}

// TestCheckpointRejectsForeignProgress: a checkpoint under the sweep's
// own key whose next_p or sample sizes the sweep could not have written
// is ignored, and the sweep starts from scratch.
func TestCheckpointRejectsForeignProgress(t *testing.T) {
	data, err := os.ReadFile(fixtureCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Checkpoint)
	}{
		{"next_p off the grid", func(cp *Checkpoint) { cp.NextP = 44 }},
		{"next_p past the end", func(cp *Checkpoint) { cp.NextP = 100 }},
		{"next_p inside the samples", func(cp *Checkpoint) { cp.NextP = 40 }},
		{"no samples before next_p", func(cp *Checkpoint) { cp.Samples = nil }},
		{"a sample missing", func(cp *Checkpoint) { cp.Samples = append(cp.Samples[:5], cp.Samples[6:]...) }},
		{"a sample's P", func(cp *Checkpoint) { cp.Samples[3].P = 11 }},
		{"a sample's dims", func(cp *Checkpoint) { cp.Samples[2].Dims.K = 8 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cp Checkpoint
			if err := json.Unmarshal(data, &cp); err != nil {
				t.Fatal(err)
			}
			tc.mut(&cp)
			bad, err := json.Marshal(&cp)
			if err != nil {
				t.Fatal(err)
			}
			sys, pt, cfg := fixtureSweep(t.TempDir())
			placeCheckpoint(t, sys, pt, cfg, bad)
			_, err = RunProblem(context.Background(), failBelowResume(sys), pt, F32, cfg)
			var fe *faultinject.Error
			if !errors.As(err, &fe) {
				t.Fatalf("sweep resumed a checkpoint it could not have written (err %v)", err)
			}
		})
	}
}

// FuzzCheckpointResume feeds arbitrary bytes to the checkpoint parser
// and prefix check of a checkpointing sweep. A JSON object also gets the
// sweep's key, so the fuzzer reaches the progress checks instead of
// stopping at the key. Neither may panic or hang. Bytes they reject make
// the sweep start from scratch; only bytes they accept are resumed,
// through the whole sweep, which must finish with exactly the sizes of an
// uninterrupted sweep and leave no checkpoint file behind.
func FuzzCheckpointResume(f *testing.F) {
	data, err := os.ReadFile(fixtureCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"next_p":1,"samples":[]}`))
	f.Add([]byte(`{"next_p":4,"samples":[{"P":1,"Dims":{"M":1,"N":1,"K":1}}]}`))
	f.Add([]byte(`{"next_p":9223372036854775807,"samples":null}`))
	f.Add([]byte(`{"next_p":-2,"samples":[{"P":-2}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"key":`))
	sys, pt, cfg := fixtureSweep(f.TempDir())
	clean, err := RunProblem(context.Background(), sys, pt, F32, cfg)
	if err != nil {
		f.Fatal(err)
	}
	w, err := newCheckpointWriter(sys, pt, F32, cfg)
	if err != nil {
		f.Fatal(err)
	}
	keyJSON, _ := json.Marshal(w.key)
	f.Fuzz(func(t *testing.T, data []byte) {
		var obj map[string]json.RawMessage
		if json.Unmarshal(data, &obj) == nil && obj != nil {
			obj["key"] = keyJSON
			data, _ = json.Marshal(obj)
		}
		if w.accept(data, pt, cfg) == nil {
			return
		}
		cfg := cfg
		cfg.Resilience.CheckpointDir = t.TempDir()
		placeCheckpoint(t, sys, pt, cfg, data)
		ser, err := RunProblem(context.Background(), sys, pt, F32, cfg)
		if err != nil {
			t.Fatalf("sweep failed resuming an accepted checkpoint: %v", err)
		}
		if len(ser.Samples) != len(clean.Samples) {
			t.Fatalf("%d samples, want %d", len(ser.Samples), len(clean.Samples))
		}
		for i, smp := range ser.Samples {
			if want := clean.Samples[i]; smp.P != want.P || smp.Dims != want.Dims {
				t.Fatalf("sample %d is p=%d %v, want p=%d %v", i, smp.P, smp.Dims, want.P, want.Dims)
			}
		}
		left, _ := filepath.Glob(filepath.Join(cfg.Resilience.CheckpointDir, "sweep-*.json"))
		if len(left) != 0 {
			t.Fatalf("completed sweep left %v", left)
		}
	})
}
