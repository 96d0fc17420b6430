#!/usr/bin/env bash
# Builds the benchmark from source and makes one run; BENCHMARK.json's
# command. Run from the repository root:
#
#   bash bench/run.sh --workload edge-backup --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh                 # every workload, every metric
#   bash bench/run.sh -repeat 2 -check
#
# bench/ is a module of its own (so the repository's build files stay
# untouched) that the repository's go.work does not list, hence
# GOWORK=off. Everything the build and the runs write stays inside the
# checkout: the binary and the Go build cache under .bench_build/, traces
# and durable-fresh's files under bench/out/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOWORK=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOCACHE="$build/go-cache"
go build -C bench -o "$build/efbench" .
exec "$build/efbench" "$@"
