#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, in this directory) and runs
# it from the repository root. Build outputs and the Go build cache stay
# inside the checkout, under .bench_build/. See README.md.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/infilterd" ]; then
	echo "benchmark/run.sh: run it from the repository root: no go.mod or cmd/infilterd in $root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
