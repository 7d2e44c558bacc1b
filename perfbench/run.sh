#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload fig10 --seed 1 --seconds 55 --trace 0
#
# Every build and run artifact (Go build cache, binary, generated inputs,
# trace files) stays under the build directory, .bench_build by default.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The toolchain's own settings and telemetry live under the config home.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" -work "$build/perfbench-work" "$@"
