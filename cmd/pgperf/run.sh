#!/usr/bin/env bash
# Builds pgperf from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/pgperf/run.sh --workload dc-oneshot --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every other file the go command
# writes stay under .bench_build (or $CARGO_TARGET_DIR when set), so the
# checkout is the only place the benchmark reads or writes. The build
# needs the repository's root module (cmd/pgperf/go.mod replaces
# powerrchol with ../..): outside a full checkout it fails, and no
# result is printed.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local

(cd cmd/pgperf && go build -o "$out/pgperf" .)
exec "$out/pgperf" "$@"
