#!/usr/bin/env bash
# Builds parborbench from the sources of the checkout it is run from,
# then runs it with the given arguments. Run it from the repository
# root:
#
#   bash bench/bench.sh run --workload detect --seed 1 --seconds 10 --trace 0
#   bash bench/bench.sh compare <parent-results-dir> <change-results-dir>
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, the benchmark's scratch directories and span
# files) stays under .bench_build/ in the checkout, and nothing is
# downloaded: the benchmark module depends only on the repository's own
# module through a local replace.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/parborbench" .)
exec "$out/parborbench" "$@"
