#!/usr/bin/env bash
# The command of BENCHMARK.json: builds sqalpelbench from source and runs it
# with the given arguments, from the root of the checkout. Everything the
# build writes (binary, Go build cache, toolchain bookkeeping) stays under
# .bench_build/ in the checkout; the run itself writes under benchmarks/out/.
#
#   bash benchmarks/run.sh --workload tpch_power --seed 42 --seconds 20 --trace 0
#   bash benchmarks/run.sh -agree -runs 10
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
  cd "$root/benchmarks"
  GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
    GOTOOLCHAIN=local \
    go build -o "$build/sqalpelbench" ./sqalpelbench
)
cd "$root"
exec "$build/sqalpelbench" "$@"
