#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# into .bench_build/ at the checkout root — Go build cache included, so
# nothing is written outside the checkout — and runs it from that root.
# `go build` relinks only when a source file of either module changed.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
