#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash dartbench/run.sh --workload dart-closed --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, temporary build files and the go command's
# own configuration directory stay under .bench_build in the checkout. Build
# output goes to standard error, so the last line of standard output is the
# benchmark's JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/dartbench" && go build -o "$out/dartbench" .) 1>&2
exec "$out/dartbench" "$@"
