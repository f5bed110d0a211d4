#!/usr/bin/env bash
# Checks an example's RTPB_TRACE_OUT trace against the byte length and
# SHA-256 committed for it in CONTRACT.json at the repository root.
# Seeded examples write byte-identical traces, so any difference means
# the simulator's behaviour changed.
#
#   .github/scripts/check-trace.sh <example> <trace-file>
set -euo pipefail
example=$1
trace=$2
contract="$(dirname "$0")/../../CONTRACT.json"

want=$(jq -c --arg ex "$example" '.example_traces[$ex] // empty' "$contract")
got=$(jq -cn --argjson bytes "$(wc -c < "$trace")" \
  --arg sha256 "$(sha256sum "$trace" | cut -d' ' -f1)" \
  '{bytes: $bytes, sha256: $sha256}')
if [ -z "$want" ]; then
  echo "::error::CONTRACT.json has no entry for $example; its trace is $got"
  exit 1
fi
if [ "$(jq -c . <<< "$want")" != "$got" ]; then
  echo "::error::$example trace differs from CONTRACT.json"
  echo "expected $want"
  echo "actual   $got"
  exit 1
fi
echo "$example trace matches CONTRACT.json: $got"
