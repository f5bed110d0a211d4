#!/usr/bin/env bash
# Reports the Rust lines the working tree adds and deletes against a base
# revision, split into non-test and test lines, as a Markdown table.
#
# Non-test lines are the non-blank lines before a file's first
# `#[cfg(test)]`, in files outside tests/, benches/ and examples/. Every
# other non-blank line counts as test code. Each side of each changed
# file is split at that boundary and the two parts are diffed apart.
#
#   .github/scripts/net-lines.sh <base-rev>
set -euo pipefail
base=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Splits stdin into $2/code and $2/test (blank lines dropped), treating
# every line as test code when $1 says the file is a test file.
split_file() {
  mkdir -p "$2"
  awk -v all="$1" -v dir="$2" '
    /#\[cfg\(test\)\]/ { t = 1 }
    NF { print > (dir "/" ((all || t) ? "test" : "code")) }
  '
  touch "$2/code" "$2/test"
}

# Prints "added deleted" between two files.
numstat() {
  git diff --no-index --numstat "$1" "$2" | awk '{ a += $1; d += $2 } END { print a + 0, d + 0 }'
}

added_code=0 deleted_code=0 added_test=0 deleted_test=0
while read -r file; do
  case "$file" in
    tests/* | */tests/* | benches/* | */benches/* | examples/* | */examples/*) all=1 ;;
    *) all=0 ;;
  esac
  rm -rf "$work/old" "$work/new"
  { git show "$base:$file" 2>/dev/null || true; } | split_file "$all" "$work/old"
  { cat "$file" 2>/dev/null || true; } | split_file "$all" "$work/new"
  read -r a d < <(numstat "$work/old/code" "$work/new/code")
  added_code=$((added_code + a)) deleted_code=$((deleted_code + d))
  read -r a d < <(numstat "$work/old/test" "$work/new/test")
  added_test=$((added_test + a)) deleted_test=$((deleted_test + d))
done < <(git diff --name-only "$base" -- '*.rs')

echo "### Rust lines against \`$(git rev-parse --short "$base")\`"
echo
echo "| | added | deleted | net |"
echo "|---|---:|---:|---:|"
echo "| non-test | +$added_code | -$deleted_code | $((added_code - deleted_code)) |"
echo "| test | +$added_test | -$deleted_test | $((added_test - deleted_test)) |"
