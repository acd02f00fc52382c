#!/usr/bin/env bash
# Builds the editor benchmark from the surrounding checkout and runs it.
# Run from the repository root:
#
#   bash editbench/run.sh --workload typing --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, temp
# files and telemetry counters, binary, store directories) stays under
# .bench_build/ in the current directory.
# Without the repository around editbench/ the build fails, and so does
# this script, before any result is printed.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go -C "$here" build -o "$out/editbench" .
exec "$out/editbench" --dir "$out" "$@"
