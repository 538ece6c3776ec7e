#!/usr/bin/env bash
# Builds the carat benchmark from this checkout's source and runs it.
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, Go's
# configuration and temporary files, and the benchmark's output files (CPU
# profiles, attribution tables) all stay under .bench_build/ in the current
# directory, so nothing outside the checkout is written. The toolchain is
# the local one and module downloads are off. The last line of standard
# output is the JSON result; build messages go to standard error.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=readonly

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed; run from the root of a complete carat checkout" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
