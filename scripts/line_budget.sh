#!/usr/bin/env bash
# Line budget (ROADMAP item 10): the *.rs lines under each crate and under
# tests/ may not exceed scripts/line_budget.txt ("<dir> <lines>" per line).
# A PR that has to grow a crate raises its line there, in the same PR.
set -euo pipefail
cd "$(dirname "$0")/.."
fail=0
for dir in crates/*/ tests/; do
  dir=${dir%/}
  budget=$(awk -v d="$dir" '$1 == d { print $2 }' scripts/line_budget.txt)
  lines=$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)
  printf '%-18s %6d / %6s\n' "$dir" "$lines" "${budget:-none}"
  if [ -z "$budget" ] || [ "$lines" -gt "$budget" ]; then
    echo "  $dir is over its budget (or has none) in scripts/line_budget.txt"
    fail=1
  fi
done
exit $fail
