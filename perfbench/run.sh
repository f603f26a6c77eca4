#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep_snapshot --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/perfbench,
# so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files inside
# the checkout too.
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed (run from the repository root of a full checkout)" >&2
	exit 2
fi
exec "$out/perfbench" --out "$out" "$@"
