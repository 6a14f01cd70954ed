#!/usr/bin/env bash
# Builds objbench from source and runs it with the given flags. Run it
# from the repository root; the binary and the Go build cache go under
# .bench_build/ there, so nothing is written outside the checkout.
#
#   bash cmd/objbench/run.sh -workload stack-solo -seed 1 -seconds 10 -trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C "$(dirname "$0")" build -buildvcs=false -o "$out/objbench" .
exec "$out/objbench" "$@"
