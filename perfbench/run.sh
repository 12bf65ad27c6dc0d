#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it.
#
#   bash perfbench/run.sh --workload lucene-profile --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artifact stays inside
# the checkout: the Go build cache, temporary files and the binary live
# under .bench_build/, spans and pinned simulated outputs under .bench_out/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
