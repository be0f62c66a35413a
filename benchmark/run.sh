#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build leaves
# behind (compiler cache included) goes to .bench_build at the root of the
# checkout, so nothing outside the checkout is read or written.
#
#   bash benchmark/run.sh --workload peerview-r200 --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOENV=off
# The toolchain keeps its telemetry counters under the user's config directory.
export XDG_CONFIG_HOME="$build/config"

# benchmark/ is a module of its own that replaces the repository's module
# with the directory above it: in a directory that holds the benchmark
# alone, this build fails and the script exits non-zero without a result.
go build -C "$here" -o "$build/jxta-benchmark" .

cd "$root"
exec "$build/jxta-benchmark" "$@"
