#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: builds the benchmark driver,
# the per-layer probes and xquecd from the checkout's sources into
# .bench_build/, then hands the arguments to xquecload. Run it from the
# root of the checkout. Everything the Go toolchain reads or writes
# besides the sources stays inside the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOENV=off GOTOOLCHAIN=local GOWORK=off
cd "$root/bench"
go build -o "$build/bin/" ./cmd/xquecload xquec/cmd/xquecd
# The probes reach into internal packages; if a later change to those
# breaks them, the end-to-end runs must still build.
go build -o "$build/bin/" ./cmd/xqueclayers
cd "$root"
exec "$build/bin/xquecload" "$@"
