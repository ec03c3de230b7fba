#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload lookup-cold --seed 1 --seconds 10 --trace 0
# Everything it writes (build cache, binary, fleet data, spans) stays
# under $CARGO_TARGET_DIR, default .bench_build, in the current directory.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" -build "$build" "$@"
