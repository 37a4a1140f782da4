#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the root
# of a checkout:
#
#	bash perfbench/run.sh --workload select-uniform --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the checkout. The benchmark module reaches the system under test through a
# replace directive pointing at the checkout root, so outside a full checkout
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command's caches, temporary files and telemetry counters (kept
# under the user config directory) all go to the build directory.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build" "$@"
