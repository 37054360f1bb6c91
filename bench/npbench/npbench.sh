#!/usr/bin/env bash
# Builds npbench and npexp from this checkout and runs npbench with the
# given arguments. Build outputs, the Go build cache and every file the
# benchmark writes stay under .bench_build/ in the repository root, which
# is also the working directory npbench runs in.
#
#   bash bench/npbench/npbench.sh --workload npexp-figs --seed 7 --seconds 20 --trace 0
#   bash bench/npbench/npbench.sh compare a.json b.json
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench/npbench" && go build -o "$build/bin/npbench" .)
(cd "$root" && go build -o "$build/bin/npexp" ./cmd/npexp)
cd "$root"
exec "$build/bin/npbench" "$@"
