#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it. Every build artifact and the Go build cache stay under
# .bench_build at the root of the checkout.
#
#   bash lnabench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOENV=off
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

if [ -z "${LNA_COMMIT:-}" ]; then
	LNA_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export LNA_COMMIT

(cd "$root/lnabench" && go build -buildvcs=false -o "$build/lnabench" .)
exec "$build/lnabench" "$@"
