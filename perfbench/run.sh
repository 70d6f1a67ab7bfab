#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload transcode --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files, traces and the binary all live
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

cd "$root/perfbench"
go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
