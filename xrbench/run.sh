#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the
# root of a checkout:
#
#   bash xrbench/run.sh --workload grid_net --seed 1 --seconds 36 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/xrbench" && go build -o "$out/bin/xrbench" .)
exec "$out/bin/xrbench" "$@"
