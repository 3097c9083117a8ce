#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from source into
# .bench_build/ at the root of the checkout (build cache included, so
# nothing is written outside it) and runs it with the arguments given:
# --workload <name> --seed <n> --seconds <s> --trace <0|1>.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
go -C bench build -o "$build/bench" .

# The run gets one CPU, the last this shell may use. On the 2-vCPU
# sandbox work spread over both vCPUs repeats within ±25% and work on
# one within a few percent (README.md, "Noise budget"); the program
# sets GOMAXPROCS from the CPUs it is left with and prints it.
pin=()
if command -v taskset >/dev/null 2>&1; then
  cpu=$(taskset -cp $$ 2>/dev/null | grep -o '[0-9]*$' || true)
  if [ -n "$cpu" ]; then pin=(taskset -c "$cpu"); fi
fi
exec ${pin[@]+"${pin[@]}"} "$build/bench" "$@"
