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
# derive, list) at its defaults, and a fixed list of flag-built invocations
# that together set every subcommand flag to a valid non-default value
# (the knob-file flags, bare and wrapped, on small files written to a temp
# dir; --loads and --rates in both grid forms), each in both renderings.
# Compares stdout and exit status byte for byte, prints one `identical` or
# `DIFF` line per run and exits 1 if any run differs (2 on bad usage). A
# change that claims to leave every report unchanged should pass it against
# the parent commit's build.

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

# Knob files for --classes, --arrival, --autoscaler and --faults: each block
# bare, and wrapped as {"<block>": ...}.
cat > "$tmp/classes.json" << 'JSON'
[{"name": "chat", "weight": 3, "prompt_tokens": 800, "output_tokens": 200},
 {"name": "rag", "prompt_tokens": 3000, "output_tokens": 300, "ttft_slo_s": 4}]
JSON
echo '{"classes": [{"name": "a", "prompt_tokens": 1200}, {"name": "b", "weight": 2}]}' \
  > "$tmp/classes_wrapped.json"
echo '{"kind": "diurnal", "multipliers": [0.5, 1.0, 0.7]}' > "$tmp/arrival.json"
echo '{"arrival": {"kind": "onoff", "on_mean_s": 5, "off_mean_s": 5, "off_multiplier": 0.2}}' \
  > "$tmp/arrival_wrapped.json"
echo '{"policy": "reactive", "interval_s": 2, "delay_s": 3}' > "$tmp/autoscaler.json"
echo '{"autoscaler": {"policy": "predictive", "interval_s": 2, "delay_s": 3}}' \
  > "$tmp/autoscaler_wrapped.json"
echo '{"afr": 5000, "mttr_hours": 0.01, "hot_spares": 1, "spare_activation_minutes": 0.1}' \
  > "$tmp/faults.json"
echo '{"faults": {"afr": 5000, "mttr_hours": 0.01, "retry_policy": "drop"}}' \
  > "$tmp/faults_wrapped.json"

# `@` stands for the temp dir; it is dropped from the printed labels.
invocations=(
  "fig3a --baseline Lite --prompt 1024 --output 128 --ttft 0.8 --tbt 0.04 --ideal-capacity --kv-ideal --max-batch 512 --threads 2"
  "fig3b --baseline Lite+MemBW --kv-ideal=true --ideal-capacity=false"
  "search --model Llama3-8B --gpu Lite --prompt 2048 --tbt 0.025 --threads 1"
  "design --model Llama3-8B --hbm-cost 10 --price-multiplier 6 --amortization-years 3"
  "serve --gpu Lite+MemBW --load 0.6 --horizon 20 --prefill-instances 2 --decode-instances 3 --prompt-sigma 0.3 --output-sigma 0.2 --seed 7 --classes @/classes.json --arrival @/arrival.json --autoscaler @/autoscaler.json --faults @/faults.json --threads 1"
  "serve --horizon 20 --classes @/classes_wrapped.json --arrival @/arrival_wrapped.json --autoscaler @/autoscaler_wrapped.json --faults @/faults_wrapped.json"
  "serve --model Llama3-8B --rate 4 --horizon 30 --shards 3 --prompt 1200 --output 200 --ttft 2 --tbt 0.06 --max-batch 256"
  "sweep --loads 0.2:0.6:0.2 --horizon 10 --decode-instances 2 --seed 11 --classes @/classes.json"
  "sweep --loads 0.3,0.6 --horizon 10 --prompt-sigma 0.2 --output-sigma 0.1 --arrival @/arrival_wrapped.json --faults @/faults.json"
  "sweep --gpu Lite --rates 2:6:2 --horizon 10 --shards 2 --prefill-instances 1"
  "sweep --model Llama3-8B --rates 3,6 --horizon 10 --autoscaler @/autoscaler.json --kv-ideal"
  "mcsim --gpu Lite --gpus-per-instance 4 --instances 8 --spares 2 --years 5 --seed 9 --trials 4 --threads 2"
  "yield --d0 0.2 --area 400 --split 2 --cluster-alpha 2 --threads 2"
  "derive --base Lite --split 2 --mem 2 --net 2 --clock 1.1 --threads 1"
  "derive --split 2 --mem 8 --net 8"
  "serve --horizon 5 --seed 9007199254740993"
  "mcsim --trials 2 --seed 18446744073709551615"
  "serve --horizon 0.001"
)
for invocation in "${invocations[@]}"; do
  read -r -a args <<< "${invocation//@/$tmp}"
  compare "${invocation//@\//} json" "${args[@]}" --json
  compare "${invocation//@\//} text" "${args[@]}"
done

echo "$diffs of $runs runs differ"
[ "$diffs" -eq 0 ]
