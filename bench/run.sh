#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash bench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# It builds ./bench from the checkout's sources and runs it. Everything the
# build and the run write — Go's build cache, its temporary files, its
# per-user configuration, the binary, snapshots, span files, results.jsonl —
# stays under .bench_build/ in the checkout. In a directory without the
# repository's go.mod there is no program to build: the script exits non-zero
# before it starts anything.
#
# The go command is the only process this script starts besides the benchmark
# itself (which it execs, and which starts none). With telemetry in its default
# "local" mode the go command forks a detached child that outlives it, so the
# mode file in the private HOME says "off" before go is first called.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/main.go ]; then
	echo "bench/run.sh: no go.mod here: run from the root of a cicero checkout" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home/.config/go/telemetry"
export HOME="$build/home" GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
unset XDG_CONFIG_HOME XDG_CACHE_HOME
echo off >"$HOME/.config/go/telemetry/mode"

go build -o "$build/cicero-bench" ./bench
exec "$build/cicero-bench" -out "$build/out" "$@"
