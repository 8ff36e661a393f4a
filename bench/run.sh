#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything go writes — build cache, temporary files, the
# binary — goes under .bench_build at the checkout's root, so a run reads
# and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
out="$(cd .. && pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/edr-bench" .
exec "$out/edr-bench" "$@"
