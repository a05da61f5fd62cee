#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload hot_point --seed 1 --seconds 12 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory; the Go build cache is kept there too, so nothing is written
# outside the checkout.
set -euo pipefail
root="$PWD"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dir "$out" "$@"
