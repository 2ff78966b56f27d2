#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload edge_lenet --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ of the
# directory this is run from (the root of a checkout): the Go build cache,
# the binary, weight caches, noise files and trace files.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-mod" GOTMPDIR="$out" TMPDIR="$out"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# go build is incremental: after the first run it only checks that the
# binary is current. It fails, and the script with it, where the repository
# the benchmark measures (../ as seen from bench/) is missing.
(cd "$bench" && go build -o "$out/shredder-bench" .)
exec "$out/shredder-bench" -tmp "$out/tmp" "$@"
