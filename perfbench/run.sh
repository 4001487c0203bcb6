#!/bin/sh
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   sh perfbench/run.sh --workload durable-json --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Build outputs, the Go build cache, the go
# command's own state (GOPATH, telemetry under XDG_CONFIG_HOME) and the
# run's journal directories all stay under .bench_build in the checkout.
set -eu
if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a checkout of the oasis module" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
