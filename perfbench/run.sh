#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it:
#
#   bash perfbench/run.sh --workload fill --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the runs write
# stays under the build directory: $CARGO_TARGET_DIR when set, otherwise
# .bench_build. The traced run (--trace 1) writes its spans there too.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

# Keep the Go toolchain inside the checkout and off the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" -spans "$build/spans" "$@"
