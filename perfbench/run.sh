#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-stream --seed 1 --seconds 28 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there (the go command's cache, temporary files and
# telemetry counters included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -spans "$out/spans.jsonl" "$@"
