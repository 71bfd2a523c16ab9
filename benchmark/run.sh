#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash benchmark/run.sh --workload dashboard --seed 1 --seconds 30 --trace 0
# The build, the Go build cache and the go command's own state stay under
# .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -buildvcs=false -o "$out/benchmark" .) >&2
exec "$out/benchmark" "$@"
