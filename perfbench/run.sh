#!/usr/bin/env bash
# Builds the benchmark harness and palsweep from this checkout into
# .bench_build (Go build cache included, so nothing is written outside
# the checkout), then runs the harness with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-engine --seed 1 --seconds 20 --trace 0
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/palsweep || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
root=$(pwd)
# Point every place the go command writes (build cache, module path,
# temp files, user config and telemetry under HOME) into .bench_build.
export HOME="$root/.bench_build/home"
export XDG_CONFIG_HOME="$HOME/.config" XDG_CACHE_HOME="$HOME/.cache"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$HOME" "$GOCACHE" "$GOPATH" "$GOTMPDIR"

go build -o .bench_build/palsweep ./cmd/palsweep
(cd perfbench && go build -o ../.bench_build/perfbench .)
exec .bench_build/perfbench "$@"
