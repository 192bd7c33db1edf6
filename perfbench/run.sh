#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Every build artefact, cache and
# temporary file stays under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
# The go command keeps its user configuration and telemetry counters
# under the user config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
