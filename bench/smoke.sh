#!/usr/bin/env bash
# Runs bench rows and checks every artifact they write.
#
#   bench/smoke.sh BUILD_DIR OUT_DIR <<'EOF'
#   fig8_broadcast  bench_fig8_broadcast  --smoke --telemetry-out tel/fig8.json
#   ha_failover     bench_ha_failover     --smoke --jobs 4
#   EOF
#
# Each row is "<label> <bench binary> <flags...>"; blank rows and rows
# starting with '#' are skipped.  The bench runs with
# --json OUT_DIR/BENCH_<label>.json and exits non-zero when one of its
# claim checks fails; tools/esprof then validates that artifact and, when
# the row passes --telemetry-out PATH, the telemetry it wrote: the file
# PATH, or PATH/*.trace.json for a sweep bench.  The first failure stops
# the run with a non-zero status.
set -euo pipefail

build=$1
out=$2
mkdir -p "$out"
while read -r label bench flags; do
  case $label in '' | '#'*) continue ;; esac
  echo "=== $label: $bench $flags"
  # shellcheck disable=SC2086  # flags are word-split on purpose
  "$build/bench/$bench" $flags --json "$out/BENCH_$label.json" </dev/null
  "$build/tools/esprof" "$out/BENCH_$label.json" </dev/null
  set -- $flags
  while [ $# -gt 1 ]; do
    if [ "$1" = --telemetry-out ]; then
      if [ -d "$2" ]; then
        "$build/tools/esprof" "$2"/*.trace.json </dev/null
      else
        "$build/tools/esprof" "$2" </dev/null
      fi
    fi
    shift
  done
done
