#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#	bash gridbench/run.sh --workload cbs-compute --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# checkpoint files and span dumps all stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
go build -C gridbench -o "$out/gridbench" .
exec "$out/gridbench" --workdir "$out" "$@"
