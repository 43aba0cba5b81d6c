#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload sweep-graph --seed 1 --seconds 12 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
if ! go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 3
fi
exec "$out/perfbench" -commit "$commit" -out "$out/out" "$@"
