#!/usr/bin/env bash
# Checks an example's RTPB_TRACE_OUT trace against the byte length and
# SHA-256 committed for it in CONTRACT.json at the repository root.
# Seeded examples write byte-identical traces, so any difference means
# the simulator's behaviour changed. An optional third argument names
# the CONTRACT.json section to check against (default: example_traces).
#
#   .github/scripts/check-trace.sh <example> <trace-file> [section]
set -euo pipefail
example=$1
file=$2
section=${3:-example_traces}
contract="$(dirname "$0")/../../CONTRACT.json"

want=$(jq -c --arg sec "$section" --arg ex "$example" '.[$sec][$ex] // empty' "$contract")
got=$(jq -cn --argjson bytes "$(wc -c < "$file")" \
  --arg sha256 "$(sha256sum "$file" | cut -d' ' -f1)" \
  '{bytes: $bytes, sha256: $sha256}')
if [ -z "$want" ]; then
  echo "::error::CONTRACT.json has no $section entry for $example; its file is $got"
  exit 1
fi
if [ "$(jq -c . <<< "$want")" != "$got" ]; then
  echo "::error::$example differs from CONTRACT.json $section"
  echo "expected $want"
  echo "actual   $got"
  exit 1
fi
echo "$example matches CONTRACT.json $section: $got"
