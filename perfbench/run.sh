#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it; every
# argument is passed on. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload sim-mix --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's configuration and
# telemetry, and span files stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
