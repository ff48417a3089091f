#!/usr/bin/env bash
# Report-identity check between two litegpu builds.
#
#   tools/compare_reports.sh <parent-litegpu> <change-litegpu>
#
# Runs every examples/scenarios/*.json and litebench/workloads/*.json (read
# only, at the files' own seeds) through `litegpu run <file>` with each
# binary, in both renderings (text, and `--json`), once at `--threads 1`
# and once at the default thread count, and compares stdout and exit
# status byte for byte. Prints one `identical` or `DIFF` line per run and
# exits 1 if any run differs (2 on bad usage). A change that claims to
# leave every report unchanged should pass it against the parent commit's
# build.

set -u

if [ $# -ne 2 ] || [ ! -x "$1" ] || [ ! -x "$2" ]; then
  echo "usage: $0 <parent-litegpu> <change-litegpu>" >&2
  exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

diffs=0
runs=0
for scenario in examples/scenarios/*.json litebench/workloads/*.json; do
  for format in json text; do
    for threads in 1 default; do
      flags=()
      if [ "$format" = json ]; then
        flags+=(--json)
      fi
      if [ "$threads" != default ]; then
        flags+=(--threads "$threads")
      fi
      "$parent" run "$scenario" "${flags[@]}" > "$tmp/parent.out" 2> /dev/null
      parent_rc=$?
      "$change" run "$scenario" "${flags[@]}" > "$tmp/change.out" 2> /dev/null
      change_rc=$?
      runs=$((runs + 1))
      label="$scenario $format threads=$threads"
      if [ "$parent_rc" -eq "$change_rc" ] && cmp -s "$tmp/parent.out" "$tmp/change.out"; then
        echo "identical $label (exit $change_rc)"
      else
        echo "DIFF      $label (exit $parent_rc -> $change_rc)"
        diffs=$((diffs + 1))
      fi
    done
  done
done

echo "$diffs of $runs runs differ"
[ "$diffs" -eq 0 ]
