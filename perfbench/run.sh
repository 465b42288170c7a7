#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root, for example:
#
#   bash perfbench/run.sh --workload contact-burst-1k --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the span dumps go to .bench_build/ in
# the current directory, so a run reads and writes only inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
