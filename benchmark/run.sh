#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark and the
# iyp-serve binary under test from the checkout's sources, keeping every
# build artefact (Go build cache included) inside the checkout, then runs
# the benchmark from the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
cd "$here"
go build -o "$build/bin/iyp-benchmark" .
go build -o "$build/bin/iyp-serve" iyp/cmd/iyp-serve
cd "$root"
exec "$build/bin/iyp-benchmark" -serve-bin "$build/bin/iyp-serve" "$@"
