#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it lives in and runs it.
# Everything it builds or writes stays under <checkout>/.bench_build: the Go
# build cache, the toolchain's own config (HOME) and the benchmark's state.
#
#   bash e2ebench/run.sh --workload attack --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -dir "$build" -contract "$root/BENCHMARK.json" "$@"
