#!/usr/bin/env bash
# Builds and runs the cxlmem benchmark harness (this directory's Go module)
# from the repository root. The Go build cache, temporary files, the built
# binaries and the trace all go under .bench_build/ at the root, so a run
# reads and writes nothing outside the checkout but the Go toolchain itself.
#
#   bash bench/run.sh                                   # all four workloads
#   bash bench/run.sh --workload serve-warm --seed 3 --seconds 10 --trace 0
#
# Arguments pass through to the harness; see bench/README.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/bin/bench" .)
cd "$root"
exec "$out/bin/bench" "$@"
