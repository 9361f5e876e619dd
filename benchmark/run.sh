#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build leaves behind (the binary, Go's build cache, Go's
# per-user files) stays under .bench_build in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

(
	cd "$here"
	HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
		go build -o "$build/fvbench" .
)

cd "$root"
exec "$build/fvbench" "$@"
