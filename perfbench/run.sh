#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload local --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (Go build cache, binary, WAL files, span
# dumps) stays under .bench_build in the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=$PWD/.bench_build
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" --dir "$build" "$@"
