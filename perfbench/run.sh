#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; every argument passes through, e.g.
#
#   bash perfbench/run.sh --workload read-tcp --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's own state and
# scratch data all stay under .bench_build in the checkout.
set -euo pipefail
root=$PWD
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
