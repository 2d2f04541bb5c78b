#!/usr/bin/env bash
# The committed results/*.{csv,json} are what the tree produces: reruns
# every DES table and figure and the claims scorecard (seeded,
# bit-reproducible, about a minute)
# and fails on any difference from the committed files. Tolerance zero;
# a PR that moves a number commits the regenerated files and says why.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -p smarth-bench --release --bin figures -- \
  table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 ablations ext_storage claims >/dev/null
git diff --exit-code --stat -- results/
