#!/usr/bin/env bash
# Builds litebench (Release) from the checkout's sources into
# .bench_build/litebench, then runs it. Build output goes to stderr, so the
# last stdout line is the benchmark's JSON result.
#
#   bash litebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash litebench/run.sh --self-test
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/litebench"

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then
  jobs=4
fi
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release 1>&2
cmake --build "$build" --parallel "$jobs" 1>&2

mkdir -p "$root/.bench_build/traces"
exec "$build/litebench" --workloads-dir "$here/workloads" \
  --trace-dir "$root/.bench_build/traces" "$@"
