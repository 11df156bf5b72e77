#!/usr/bin/env bash
# Builds the benchmark command from source and runs one workload:
#
#   bash bench/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and traced
# runs' output stay under .bench_build/ there; the script reads and writes
# nothing else outside the Go toolchain.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/amobench" ./cmd/amobench)
exec "$out/amobench" "$@"
