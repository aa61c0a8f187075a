#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload fleet-verify --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and any Go state stay under
# .bench_build/ at the checkout root (CARGO_TARGET_DIR style); the first
# build compiles the standard library into that cache.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"

export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export XDG_CONFIG_HOME="${build}/config"
export GOFLAGS=""
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "${root}/bench" build -o "${build}/disparity-bench" .
exec "${build}/disparity-bench" "$@"
