#!/usr/bin/env bash
# Builds gcabench from source and runs it from the repository root:
#
#   bash bench/run.sh --workload oneshot-gca --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and binaries stay under
# .bench_build, so a run writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -o "$out/gcabench" .)
exec "$out/gcabench" "$@"
