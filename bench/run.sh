#!/bin/sh
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Run it from the repository root:
#
#	sh bench/run.sh --workload range-warm --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/ and
# bench/out/, both git-ignored; nothing is written outside the checkout.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
