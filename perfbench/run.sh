#!/usr/bin/env bash
# Builds perfbench and cmd/bvserver from this checkout, then runs
# perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload lookup|scan --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under .bench_build/ at the root
# of the checkout, including the Go build cache.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" .
go -C "$root/perfbench" build -o "$out/bvserver" bvtree/cmd/bvserver
cd "$root"
exec "$out/perfbench" "$@"
