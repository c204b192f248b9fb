#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given flags, from the root of that checkout:
#
#   bash perfbench/run.sh --workload ca-scaling --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. Outside a
# full checkout the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CACHE_HOME="$build/cache" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" -dir "$build/perfbench" "$@"
