#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind stays in the checkout:
# the Go build cache and the binary under .bench_build/, the traced
# runs' spans under .bench_out/, and per-run state under .bench_tmp/
# (removed when the run ends).
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
