#!/usr/bin/env bash
# Builds tarmd and the harness from the checkout this script sits in and
# runs the harness. Everything it writes — build cache, binaries, scratch
# databases, traces — stays inside the checkout (.bench_build/ and
# benchmark/out/). Arguments are passed through to the harness.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local

# tarmd is built from the repository's own module: in a directory that
# holds only the benchmark this fails, and so does the run.
(cd "$root" && go build -o "$build/tarmd" ./cmd/tarmd) >&2
(cd "$here" && go build -o "$build/tarm-benchmark" .) >&2

exec "$build/tarm-benchmark" -root "$root" -tarmd "$build/tarmd" "$@"
