#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload fig7-detailed --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (Go build cache, temporary files, the binary,
# scratch stores, traces and result records).
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# Stamp the commit when the tree is a git checkout; build without the
# stamp where version control is unavailable.
go -C perfbench build -o "$build/perfbench-bin" . 2>/dev/null ||
	go -C perfbench build -buildvcs=false -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
