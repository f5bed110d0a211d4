#!/usr/bin/env bash
# Prints the deterministic part of a perfbench run's standard output:
# the virtual-time lines (staleness, warm-up, failed-operation share,
# replica read latency, unavailability, recovery, acknowledged writes
# lost) and the result line without its three wall-clock metrics
# (setup_s, updates_per_s, vt_s_per_s). For one workload and seed this
# part is the same on every machine, so CI checks it against the byte
# length and SHA-256 under perfbench_vt in CONTRACT.json:
#
#   perfbench --workload stream --seed 2 --seconds 1 --trace 0 > run.txt
#   .github/scripts/perfbench-vt.sh run.txt > run.vt
#   .github/scripts/check-trace.sh stream-2 run.vt perfbench_vt
set -euo pipefail
awk '
  BEGIN {
    split("staleness_p50_ms staleness_p99_ms warmup_ms ops_failed_ratio " \
          "read_latency_p50_ms read_latency_p99_ms unavailable_ms " \
          "recovery_ms acked_writes_lost", names, " ")
    for (i in names) keep[names[i]] = 1
  }
  ($1 in keep) || index($0, "{\"correct\":") == 1
' "$1" | sed -E \
  -e 's/"(setup_s|updates_per_s|vt_s_per_s)": \{[^}]*\}, //g' \
  -e 's/, "(setup_s|updates_per_s|vt_s_per_s)": \{[^}]*\}//g'
