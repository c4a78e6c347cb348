#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload log-tcp-open --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache go under .bench_build/ in the
# repository root, so nothing is written outside the checkout. Without the
# repository's own source next to perfbench/ the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOFLAGS=
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
