#!/usr/bin/env bash
# Builds perfbench from the checkout it runs in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload record-hunt --seed 0 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary go to .bench_build, so a run reads and writes nothing
# outside the checkout but the Go toolchain.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
