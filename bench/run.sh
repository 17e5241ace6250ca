#!/usr/bin/env bash
# The benchmark's single entry point (BENCHMARK.json names it): build
# the harness from source, then run it with the arguments given.
#
#   bash bench/run.sh                                  every workload, untraced then traced
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash bench/run.sh -check [--workload NAME]         two sets of runs against BENCHMARK.json's bounds
#
# Run it from the repository root. Everything it writes — Go's build
# cache, the binary, result and span files — goes under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/main.go" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: run from the root of a digibox-go checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain inside the checkout and off the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The commit goes into every result file; git may not look above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
export DIGIBENCH_COMMIT="${DIGIBENCH_COMMIT:-$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)}"

go build -o "$out/digibench" ./bench
exec "$out/digibench" "$@"
