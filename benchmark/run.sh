#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload flow-dt --seed 0 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the toolchain's config and
# temporary files, the binary, the generated inputs and the digests.
set -euo pipefail

build=$PWD/.bench_build
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

# The revision stamp needs git; outside a usable git checkout, build without.
go -C benchmark build -o "$build/dtgp-benchmark" . 2>/dev/null ||
	go -C benchmark build -buildvcs=false -o "$build/dtgp-benchmark" .
exec "$build/dtgp-benchmark" "$@"
