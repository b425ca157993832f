#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's source and runs it with
# the given arguments. Everything the Go toolchain writes — build cache,
# temporary files, binaries — stays under bench/out, so a run reads and
# writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/bench/out"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
cd "$root/bench"
# bench/ is a module of its own, so the repository's `go test ./...` never
# reaches its unit tests. Every run runs them first (cached after the
# first): a benchmark whose arithmetic or frozen sentinel kernel has
# drifted fails here instead of reporting numbers.
go test ./kit >&2
go build -o "$out/bin/bench" .
cd "$root"
exec "$out/bin/bench" "$@"
