#!/bin/bash
# BENCHMARK.json's command: build the benchmark (its own module, bench/go.mod,
# which takes the repository's module from ../) and run it from the checkout's
# root with the given arguments. Binary and Go build cache are kept inside the
# checkout, so a run reads and writes nothing outside it (the first build is a
# cold one).
set -eu
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-buildvcs=false
(cd bench && go build -o "$root/.bench_build/bench" .)
exec .bench_build/bench "$@"
