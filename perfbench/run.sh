#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one workload.
#
#   bash perfbench/run.sh --workload fig8-paper --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artifact, the Go build cache and
# the span dumps of traced runs stay under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
