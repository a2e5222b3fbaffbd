#!/usr/bin/env bash
# Builds the benchmark and the planarsid daemon from the checkout's
# sources, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build and run output stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomod" "$out/gopath" "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/xdg"
export GOTOOLCHAIN=local GOWORK=off

go build -C perfbench -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/planarsid" ./cmd/planarsid >&2
exec "$out/bin/perfbench" --daemon "$out/bin/planarsid" --out "$out/perfbench" "$@"
