package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/sim/systems"
)

// goldenSampleDigest pins every modeled time of a fixed set of sweeps,
// bit for bit. perfbench's golden file checks thresholds only; this digest
// also covers the per-sample CPU seconds and the three GPU strategy
// seconds, so a timing-model refactor that moves any sample by one ulp
// fails here even when no verdict changes. Re-record it only for a
// deliberate model change, never for a refactor.
const goldenSampleDigest = "249304b59cf6804a8d82fd73dba21fdc9673451a213af038675bd84c6fcc3afc"

// TestSampleDigestGolden sweeps square GEMM and square GEMV on the three
// paper systems in both precisions, at 1 and 128 iterations, under the
// roofline and the blackbox models, plus LUMI's M=N=32 GEMM type up to
// d=4096 where the rocBLAS k>=2560 quirk fires, and hashes
// math.Float64bits of every sample's CPUSeconds and GPUSeconds[0..2] and
// every threshold.
func TestSampleDigestGolden(t *testing.T) {
	sq, _ := FindProblem(GEMM, "square")
	sqv, _ := FindProblem(GEMV, "square")
	mn32, _ := FindProblem(GEMM, "short_mn32_k")
	h := sha256.New()
	sweeps, samples := 0, 0
	sweep := func(sys systems.System, pt ProblemType, prec Precision, iters int, model ModelKind) {
		t.Helper()
		cfg := DefaultConfig(iters)
		cfg.Validate.Enabled = false
		cfg.Model = model
		ser, err := RunProblem(context.Background(), sys, pt, prec, cfg)
		if err != nil {
			t.Fatalf("%s %s %s i=%d %v: %v", sys.Name, pt.Name, prec, iters, model, err)
		}
		hashSeries(h, ser)
		sweeps++
		samples += len(ser.Samples)
	}
	for _, sys := range []systems.System{systems.DAWN(), systems.LUMI(), systems.IsambardAI()} {
		for _, pt := range []ProblemType{sq, sqv} {
			for _, prec := range []Precision{F32, F64} {
				for _, iters := range []int{1, 128} {
					for _, model := range []ModelKind{ModelRoofline, ModelBlackbox} {
						sweep(sys, pt, prec, iters, model)
					}
				}
			}
		}
	}
	for _, prec := range []Precision{F32, F64} {
		for _, iters := range []int{1, 128} {
			sweep(systems.LUMI(), mn32, prec, iters, ModelRoofline)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d sweeps, %d samples, digest %s", sweeps, samples, got)
	if got != goldenSampleDigest {
		t.Fatalf("sample digest = %s, want %s", got, goldenSampleDigest)
	}
}

// hashSeries feeds one series' sample times and thresholds to h.
func hashSeries(h hash.Hash, ser *Series) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(ser.Samples)))
	for i := range ser.Samples {
		smp := &ser.Samples[i]
		put(math.Float64bits(smp.CPUSeconds))
		for _, sec := range smp.GPUSeconds {
			put(math.Float64bits(sec))
		}
	}
	for _, th := range ser.Thresholds {
		found := uint64(0)
		if th.Found {
			found = 1
		}
		put(found)
		put(uint64(th.Dims.M))
		put(uint64(th.Dims.N))
		put(uint64(th.Dims.K))
	}
}
