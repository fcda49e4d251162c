#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
#
# The Go build and module caches, the user config directory (where the go
# command keeps telemetry), the binary and everything the benchmark
# writes stay under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/fvp-bench" .
exec "$out/fvp-bench" "$@"
