#!/usr/bin/env bash
# Builds the benchmark and maras-server from the checkout it runs in,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload mine_quarter --seed 1 --seconds 55 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C perfbench -o "$out/bin/perfbench" .
go build -o "$out/bin/maras-server" ./cmd/maras-server
exec "$out/bin/perfbench" -server-bin "$out/bin/maras-server" "$@"
