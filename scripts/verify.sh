#!/usr/bin/env bash
# verify.sh — the repository's full verification gate.
#
# Order matters: cheap static gates run before the test suites so a
# violation fails fast, and the race pass runs last because it is by far
# the most expensive step. Every stage is wall-clock timed, and a failure
# names the stage that broke (so "verify is red" in CI is immediately
# attributable without scrolling).
#
#   1. go build      — everything compiles
#   2. gofmt         — every Go file in the tree is gofmt-clean; any file
#                      gofmt -l lists fails the gate
#   3. go vet        — stock Go static analysis (its asmdecl check covers
#                      the amd64 assembly in internal/blas)
#   4. arm64 build   — cross-build everything and vet internal/blas for
#                      linux/arm64, so the portable BLAS fallback that
#                      non-amd64 builds get (kernel_other.go) cannot rot
#                      on an amd64 host; runs offline
#   5. blob-vet      — this repo's own analyzers (see internal/analysis):
#                      floatcompare, goroutinehygiene, determinism,
#                      pkgdoc, ctxflow, locksafety, hotalloc,
#                      errcontract. Every finding fails the
#                      gate; a deliberate exception is suppressed only
#                      by a justified //blobvet:allow in source
#   6. go test       — full test suite, shuffled (-shuffle=on with a
#                      fixed seed, so inter-test ordering dependencies
#                      surface deterministically; includes the blob-vet
#                      self-check in internal/analysis/suite_test.go and
#                      the doc gates: README/DESIGN/EXPERIMENTS and
#                      docs/ go fences must parse, docs/ pages must
#                      match the wire contract, benchmark index must
#                      match the registry)
#   7. perfbench     — vet and test the benchmark driver (perfbench/),
#                      a separate module outside the root go test ./...,
#                      so an API change it depends on fails here rather
#                      than only when the benchmark runs
#   8. fidelity      — the model-fidelity gate (DESIGN.md §15): purely
#                      deterministic checks over the committed
#                      bench_data/ efficiency tables — leave-one-out
#                      interpolation for the measured CPU table, a
#                      reference-model comparison for the synthetic GPU
#                      table — with no kernel re-runs; rewrites the
#                      FIDELITY.md report, a pure function of the
#                      committed tables and bands, and inside a git work
#                      tree fails if it differs from the committed file
#   9. fuzz smoke    — 10s of native fuzzing per untrusted-input parser:
#                      the advisor trace CSV, the fault-plan JSON, the
#                      config hash that keys the service cache, the
#                      sweep checkpoint parser and prefix check, the
#                      cluster membership wire messages + threshold
#                      route key (DESIGN.md §16), the v1 request bodies
#                      and headers of /v1/advise, /v1/threshold and
#                      /v1/dispatch (each reply one compact envelope
#                      line with a documented error code, never a 500),
#                      the netfault plan JSON (DESIGN.md §17), and the
#                      /metrics exposition under arbitrary label values
#                      (client keys are outside input)
#  10. blob-bench    — smoke run of the standardized benchmark suite
#                      (tiny sizes, one interleaved repetition): proves
#                      every case still prepares, runs and serializes
#                      to a valid BENCH_*.json
#  11. blob-soak     — short overload soak of the admission-control
#                      layer (DESIGN.md §12): sustained 4x-capacity load
#                      plus the chaos profile, asserting the shed SLOs,
#                      goroutine hygiene after drain, and that verdicts
#                      under faults match the fault-free reference; plus
#                      the dispatch profile hammering /v1/dispatch
#                      batches and asserting the shape-cache hit-rate
#                      and fast-tier latency SLOs (DESIGN.md §14); plus
#                      the cluster profile's kill/rejoin chaos run over
#                      a 3-replica consistent-hash cluster, asserting
#                      linear cache-hit scaling, byte-identical verdicts
#                      vs the single-node reference, and bounded
#                      degradation (DESIGN.md §16); plus the partition
#                      profile's network-fault run (internal/netfault):
#                      a seeded partition/heal/flap schedule with a slow
#                      peer and corrupted bodies, asserting byte-identical
#                      verdict digests vs an unfaulted replay, at least
#                      one hedge win, and no hung requests (DESIGN.md §17)
#  12. go test -race — concurrency-sensitive packages under the race
#                      detector: the worker pool, the harness, the
#                      multi-threaded BLAS kernels, the advisor
#                      service (cache / singleflight / worker pool),
#                      the offload dispatcher, the overload controller,
#                      the resilience layer (retry / breaker / fault
#                      injection), the network-fault layer, and the
#                      cluster ring / pool / gateway (hedging included);
#                      internal/blas is the longest package, ~110 s on a
#                      2-CPU host, most of it the block-edge and fused-beta
#                      tests over the AVX-512, AVX2 and portable descriptors
#  13. chaos         — the seeded fault-injection gate: the chaos tests
#                      re-run under the race detector with a fixed seed,
#                      proving a sweep under a 30%-transient fault plan
#                      still converges to fault-free verdicts and that
#                      kill-and-resume checkpointing is byte-identical
set -euo pipefail
cd "$(dirname "$0")/.."

bench_tmp="$(mktemp -d)"
stage=""
stage_t0=0

cleanup() { rm -rf "$bench_tmp"; }
trap cleanup EXIT
trap 'code=$?; echo "verify: FAILED at stage \"$stage\" after $((SECONDS - stage_t0))s (exit $code)" >&2' ERR

begin() {
	stage="$1"
	stage_t0=$SECONDS
	echo "==> $stage"
}
end() {
	echo "    ok: $stage ($((SECONDS - stage_t0))s)"
}

begin "go build"
go build ./...
end

begin "gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need gofmt -w:" >&2
	echo "$unformatted" >&2
	false
fi
end

begin "go vet"
go vet ./...
end

begin "arm64 fallback (cross build + vet internal/blas)"
GOOS=linux GOARCH=arm64 go build ./... && GOOS=linux GOARCH=arm64 go vet ./internal/blas
end

begin "blob-vet"
go run ./cmd/blob-vet ./...
end

begin "go test (-shuffle=on)"
go test -shuffle=on ./...
end

begin "perfbench (separate module: vet + test)"
go -C perfbench vet ./...
go -C perfbench test ./...
end

begin "blob-calibrate fidelity (model-fidelity gate, no kernel re-runs)"
go run ./cmd/blob-calibrate fidelity -report FIDELITY.md
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	git diff --exit-code -- FIDELITY.md
fi
end

begin "fuzz smoke (10s per target)"
go test -run='^$' -fuzz='^FuzzReadTrace$' -fuzztime=10s ./internal/advisor/
go test -run='^$' -fuzz='^FuzzPlanJSON$' -fuzztime=10s ./internal/faultinject/
go test -run='^$' -fuzz='^FuzzConfigHash$' -fuzztime=10s ./internal/core/
go test -run='^$' -fuzz='^FuzzCheckpointResume$' -fuzztime=10s ./internal/core/
go test -run='^$' -fuzz='^FuzzClusterWire$' -fuzztime=10s ./internal/cluster/
go test -run='^$' -fuzz='^FuzzV1Body$' -fuzztime=10s ./internal/service/
go test -run='^$' -fuzz='^FuzzNetfaultPlan$' -fuzztime=10s ./internal/netfault/
go test -run='^$' -fuzz='^FuzzMetricsExposition$' -fuzztime=10s ./internal/service/
end

begin "blob-bench -smoke"
go run ./cmd/blob-bench -smoke -q -tag verify -o "$bench_tmp/BENCH_verify.json"
end

begin "blob-soak -short (sustain + chaos + dispatch + cluster + partition)"
go run ./cmd/blob-soak -short -q -seed 1 -profiles sustain,chaos,dispatch,cluster,partition -o "$bench_tmp/SOAK_verify.json"
end

begin "go test -race (parallel, core, blas, service, offload, overload, resilience, faultinject, netfault, blobclient, cluster)"
go test -race ./internal/parallel/... ./internal/core/... ./internal/blas/... ./internal/service/... \
	./internal/offload/... ./internal/overload/... ./internal/resilience/... ./internal/faultinject/... \
	./internal/netfault/... ./pkg/blobclient/... ./internal/cluster/...
end

begin "chaos gate (seeded fault plans under -race)"
go test -race -count=1 -run 'TestChaos|TestCheckpoint|TestThresholdUnderChaosPlan' \
	./internal/core/ ./internal/service/
end

echo "verify: all gates passed in ${SECONDS}s"
