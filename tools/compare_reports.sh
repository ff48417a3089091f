#!/usr/bin/env bash
# Report-identity check between two litegpu builds.
#
#   tools/compare_reports.sh <parent-litegpu> <change-litegpu>
#
# Runs every examples/scenarios/*.json and litebench/workloads/*.json (read
# only, at the files' own seeds) through `litegpu run <file>` with each
# binary, in both renderings (text, and `--json`), once at `--threads 1`
# and once at the default thread count. Then runs each flag-built
# subcommand (search, fig3a, fig3b, design, serve, sweep, mcsim, yield,
# derive, list) at its defaults, in both renderings. Compares stdout and
# exit status byte for byte, prints one `identical` or `DIFF` line per run
# and exits 1 if any run differs (2 on bad usage). A change that claims to
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
# compare <label> <litegpu args...>
compare() {
  local label=$1
  shift
  "$parent" "$@" > "$tmp/parent.out" 2> /dev/null
  local parent_rc=$?
  "$change" "$@" > "$tmp/change.out" 2> /dev/null
  local change_rc=$?
  runs=$((runs + 1))
  if [ "$parent_rc" -eq "$change_rc" ] && cmp -s "$tmp/parent.out" "$tmp/change.out"; then
    echo "identical $label (exit $change_rc)"
  else
    echo "DIFF      $label (exit $parent_rc -> $change_rc)"
    diffs=$((diffs + 1))
  fi
}

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
      compare "$scenario $format threads=$threads" run "$scenario" "${flags[@]}"
    done
  done
done

for cmd in search fig3a fig3b design serve sweep mcsim yield derive list; do
  compare "$cmd json" "$cmd" --json
  compare "$cmd text" "$cmd"
done

echo "$diffs of $runs runs differ"
[ "$diffs" -eq 0 ]
