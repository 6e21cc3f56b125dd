#!/usr/bin/env bash
# Builds and runs the benchmark with every Go cache, temporary file and
# build output inside the repository's .bench_build directory.
#
#   bash benchmark/run.sh --workload sweep_cold --seed 3 --seconds 25 --trace 0
#
# Arguments pass through to the benchmark (see main.go).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-build" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
