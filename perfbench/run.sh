#!/usr/bin/env bash
# Builds the benchmark harness and the complxd daemon from source, then runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload flat-12k --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binaries,
# daemon data, trace files) goes under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(
	cd perfbench
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/complxd" complx/cmd/complxd
) >&2

exec "$out/bin/perfbench" --complxd "$out/bin/complxd" --work "$out/work" "$@"
