#!/usr/bin/env bash
# Builds the perfbench program from the sources of the checkout it is run
# in, then runs it with the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload suite-warm --seed 1 --seconds 25 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout:
# the Go build cache, temporary files, and the workloads' stores. The
# toolchain is used offline, as installed.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build/work" "$@"
