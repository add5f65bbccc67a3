#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it. Everything
# the go tool writes (build cache, module cache, telemetry counters under its
# config directory) is kept in there, so nothing is written outside the
# checkout. Run it from the repository root: BENCHMARK.json and
# benchmark/out/ are resolved from there.
# Usage: bash benchmark/run.sh --workload <name|all> [--seed 1] [--seconds 28]
#        [--trace 0|1] [--json out.json] | --compare old.json new.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/dsmperf" .
exec "$build/dsmperf" "$@"
