#!/bin/sh
# Builds hilp-bench from source and runs it with the given arguments, e.g.
#
#   sh cmd/hilp-bench/run.sh -workload evaluate -seed 1 -seconds 20 -trace 0
#
# Run it from the repository root. The build cache, the binary and the
# benchmark's scratch files all stay under .bench_build in the current
# directory.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -o "$build/hilp-bench" ./cmd/hilp-bench
exec "$build/hilp-bench" -workdir "$build" "$@"
