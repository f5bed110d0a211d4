#!/usr/bin/env bash
# Checks an example's standard output against the byte length and
# SHA-256 committed for it under example_stdout in CONTRACT.json. The
# examples print seeded virtual-time results (counts, distances,
# response times), so any difference means the simulator's behaviour
# or its reporting changed.
#
#   .github/scripts/check-stdout.sh <example> <stdout-file>
set -euo pipefail
exec "$(dirname "$0")/check-trace.sh" "$1" "$2" example_stdout
