#!/usr/bin/env bash
# Entry point for the benchmark driver: build the benchmark from source
# inside the checkout, then run it with the driver's arguments
# (--workload W --seed N --seconds S --trace 0|1).
#
# Everything the build writes stays under <checkout>/.bench_build: the Go
# build cache and module paths are pointed there, so nothing outside the
# checkout is read or written and no network is touched.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/bridge-benchmark" .)
cd "$root"
exec "$build/bridge-benchmark" "$@"
