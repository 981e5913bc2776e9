#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# repository root:
#
#   bash geobench/run.sh --workload exec-cpu --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, binary, persistent-store data, span
# files).
set -euo pipefail

if [[ ! -f go.mod || ! -f cgdqp.go || ! -d internal ]]; then
  echo "geobench: run from the repository root; the cgdqp sources are not here" >&2
  exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd geobench && go build -o "$build/geobench" .)
exec "$build/geobench" "$@"
