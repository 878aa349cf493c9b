#!/usr/bin/env bash
# Builds the benchmark harness from source into <checkout>/.bench_build and
# runs it from the checkout root. Everything the Go toolchain writes (build
# cache, temporary files, its telemetry counters, the binary) stays inside
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" GOWORK=off \
	go build -C "$here" -o "$build/xmlordb-benchmark" .
cd "$root"
exec "$build/xmlordb-benchmark" "$@"
