#!/usr/bin/env bash
# CI docs checker: fails when the documentation drifts from the code.
#
#   1. docs/{scenarios,reports,architecture}.md must exist.
#   2. Every examples/scenarios/*.json file must be mentioned in
#      docs/scenarios.md (an example nobody documents rots).
#   3. Every study kind must appear (in backticks) in docs/scenarios.md
#      and docs/reports.md.
#   4. Every ScaleEvent field (the autoscaler report rows) must appear in
#      backticks in docs/reports.md.
#   5. docs/architecture.md's "Simulator core" section must track the fast
#      core: while src/serve/event_queue.h exists, the calendar queue, the
#      SoA request layout, and the shard merge/substream entry points must
#      all be documented there.
#
# Grep-based on purpose: no build needed, runs in milliseconds. Scenario
# knob keys are checked by scenario_test instead, which walks the knob
# tables (src/core/scenario_fields.h) and requires every key in backticks
# in docs/scenarios.md; its round trip over the example files covers the
# reverse direction (everything the docs promise actually parses).

set -u
cd "$(dirname "$0")/.."

fail=0
err() {
  echo "check_docs: $*" >&2
  fail=1
}

SCENARIOS_DOC=docs/scenarios.md
REPORTS_DOC=docs/reports.md

for doc in "$SCENARIOS_DOC" "$REPORTS_DOC" docs/architecture.md; do
  [ -f "$doc" ] || err "missing $doc"
done
[ "$fail" -eq 0 ] || exit 1

# --- every checked-in example scenario is documented ---
for f in examples/scenarios/*.json; do
  base=$(basename "$f")
  grep -q "$base" "$SCENARIOS_DOC" ||
    err "example scenario '$base' is not mentioned in $SCENARIOS_DOC"
done

# --- every study kind is documented in both references ---
# The kind names come from ToString(StudyKind) in src/core/scenario.cc, so
# adding a StudyKind without documenting it fails here automatically.
kinds=$(awk '
  /^std::string ToString\(StudyKind kind\)/ { c = 1 }
  c && /return "/ {
    line = $0
    sub(/.*return "/, "", line)
    sub(/".*/, "", line)
    if (line != "unknown") print line
  }
  c && /^}/ { c = 0 }
' src/core/scenario.cc)
[ -n "$kinds" ] || err "could not extract study kinds from src/core/scenario.cc"
for kind in $kinds; do
  grep -q "\`$kind\`" "$SCENARIOS_DOC" ||
    err "study kind '$kind' is not documented in $SCENARIOS_DOC"
  grep -q "$kind" "$REPORTS_DOC" ||
    err "study kind '$kind' is not documented in $REPORTS_DOC"
done

# Field names of a struct: lines inside the struct body, two-space
# indented, not a method (no parenthesis), last identifier before '=' or ';'.
extract_fields() { # extract_fields <header> <struct-name-regex>
  # Matches plain and derived structs ("struct ServeKnobs : ServeCommonKnobs {").
  awk -v structs="$2" '
    $0 ~ "^struct (" structs ")( :[^{]*)? \\{" { c = 1; next }
    c && /^};/ { c = 0 }
    c && /^  [A-Za-z_]/ && $0 !~ /\(/ { print }
  ' "$1" |
    sed -e 's://.*::' -e 's/=.*//' -e 's/;.*//' |
    awk 'NF { print $NF }' | sort -u
}

# --- every autoscaler report row field is documented ---
# ScaleEvent is what the report's autoscaler "events" array serializes, so
# each field must be named in docs/reports.md.
for field in $(extract_fields src/serve/simulator.h "ScaleEvent"); do
  grep -q "\`$field\`" "$REPORTS_DOC" ||
    err "scale event field '$field' (src/serve/simulator.h) is not documented in $REPORTS_DOC"
done

# --- every fault report field is documented ---
# FaultEvent rows fill the report's faults "events" array; the
# ServeFaultReport / ServeFaultPoolReport structs are the faults block
# itself. Same rule as ScaleEvent: each field must be named in
# docs/reports.md.
for field in $(extract_fields src/serve/faults.h "FaultEvent"); do
  grep -q "\`$field\`" "$REPORTS_DOC" ||
    err "fault event field '$field' (src/serve/faults.h) is not documented in $REPORTS_DOC"
done
for field in $(extract_fields src/core/runner.h "ServeFaultReport|ServeFaultPoolReport|ServeFaultDomainReport"); do
  grep -q "\`$field\`" "$REPORTS_DOC" ||
    err "fault report field '$field' (src/core/runner.h) is not documented in $REPORTS_DOC"
done
# Shed rows fill the report's "shed_events" array — same rule.
for field in $(extract_fields src/serve/faults.h "ShedEvent"); do
  grep -q "\`$field\`" "$REPORTS_DOC" ||
    err "shed event field '$field' (src/serve/faults.h) is not documented in $REPORTS_DOC"
done

# --- the fleet-compare report schema is documented ---
# FleetCompareReport (with its nested Candidate rows) is the fleet study's
# JSON surface; every field must be named in docs/reports.md. extract_fields
# only sees two-space top-level fields, so the nested struct gets its own
# pass here (2-or-4-space indent, skipping the nested `struct` line itself).
fleet_fields=$(awk '
  /^struct FleetCompareReport \{/ { c = 1 }
  c && /^\};/ { c = 0 }
  c && (/^  [A-Za-z_]/ || /^    [A-Za-z_]/) && $0 !~ /\(/ && $0 !~ /struct / { print }
' src/core/runner.h |
  sed -e 's://.*::' -e 's/=.*//' -e 's/;.*//' |
  awk 'NF { print $NF }' | sort -u)
[ -n "$fleet_fields" ] || err "could not extract FleetCompareReport fields from src/core/runner.h"
for field in $fleet_fields; do
  grep -q "\`$field\`" "$REPORTS_DOC" ||
    err "fleet report field '$field' (src/core/runner.h) is not documented in $REPORTS_DOC"
done

# --- the robustness-axis engine structs are documented ---
# FaultDomainConfig / DegradedStateConfig / SheddingPolicy are the resolved
# three-axis configuration the scenario knobs compile into; the architecture
# notes must name them (same contract as the simulator-core identifiers).
for ident in FaultDomainConfig DegradedStateConfig SheddingPolicy ShedEvent; do
  grep -rq "$ident" src/serve/faults.h ||
    err "robustness identifier '$ident' vanished from src/serve/faults.h — update check_docs.sh"
  grep -q "\`[^\`]*$ident" docs/architecture.md ||
    err "robustness identifier '$ident' is not documented in docs/architecture.md"
done

# --- the simulator-core architecture notes track the fast core ---
# Keyed off the code the same way as the knob checks: these identifiers are
# the fast core's public surface (src/serve/event_queue.h, workload.h,
# simulator.h), so renaming or removing one without updating the
# architecture notes fails here.
ARCH_DOC=docs/architecture.md
if [ -f src/serve/event_queue.h ]; then
  grep -q '^## Simulator core' "$ARCH_DOC" ||
    err "docs/architecture.md is missing the 'Simulator core' section"
  for ident in CalendarEventQueue RequestStream MergeServeShardMetrics \
               ShardSubstreamSeed stream_ttft; do
    grep -rq "$ident" src/serve/*.h ||
      err "simulator-core identifier '$ident' vanished from src/serve — update check_docs.sh"
    # Qualified mentions count: `ShardSubstreamSeed(seed, i)` or
    # `ServeClusterConfig::stream_ttft` both document the identifier.
    grep -q "\`[^\`]*$ident" "$ARCH_DOC" ||
      err "simulator-core identifier '$ident' is not documented in $ARCH_DOC"
  done
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED — update docs/scenarios.md (and reports.md) to match the code" >&2
  exit 1
fi
echo "check_docs: OK"
