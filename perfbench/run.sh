#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload cluster-serve --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary and the spans
# of a traced run. The go command's user configuration (its env file and
# telemetry counters) is redirected there too, so the build neither reads
# nor writes the user's settings.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
