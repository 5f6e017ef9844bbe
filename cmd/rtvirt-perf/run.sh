#!/usr/bin/env bash
# Builds rtvirt-perf from the checkout's source and runs it with the given
# flags. Run it from the repository root:
#
#   bash cmd/rtvirt-perf/run.sh -workload fig5a -seed 1 -seconds 20 -trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build
# at the root, so the benchmark reads and writes nothing outside the
# checkout. Nothing is downloaded: the module has no dependencies beyond
# the repository itself.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/cmd/rtvirt-perf" && go build -o "$build/rtvirt-perf" .)
exec "$build/rtvirt-perf" "$@"
