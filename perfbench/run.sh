#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it
# from the repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload model-whatif --seed 1 --seconds 15 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build/
# at the repository root, so nothing outside the checkout is written.
# Without the repository's sources next to perfbench/ the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
