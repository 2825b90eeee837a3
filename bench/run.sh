#!/usr/bin/env bash
# Builds oblivbench from the sources of the checkout this is run from, then
# runs it with the given flags.  Run it from the checkout root:
#
#   bash bench/run.sh --workload scan-stream --seed 1 --seconds 15 --trace 0
#
# The build cache, temporary files and the binary all stay under
# .bench_build/ in the checkout.  The bench module builds against the
# simulator one directory up, so outside a full checkout the build fails and
# the script exits nonzero without running anything.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/oblivbench" ./oblivbench)
exec "$build/oblivbench" "$@"
