#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments (see main.go). Run from the repository root:
#
#   bash e2ebench/run.sh --workload cm1-paper --seed 1 --seconds 36 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTELEMETRY=off \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" HOME="$build/home"
(cd "$root/e2ebench" && go build -o "$build/bin/e2ebench" .)
exec "$build/bin/e2ebench" "$@"
