#!/usr/bin/env bash
# Repeatability of the end-to-end metrics: runs sets of measured passes
# back to back and judges every metric on every workload as the PR driver
# does, against the bounds in BENCHMARK.json.
#
#   benchmark/repeat.sh --sets 2 --runs 5 --seed <n> [--seconds 30] [--workload <name>]
#
# Prints, per workload and metric, each set's quartiles, its spread
# (quartile distance over median, and max-min over median) and PASS or
# FAIL, and writes benchmark/out/spread-seed<n>.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/smarth-benchmark" --repeat --out-dir "$here/out" "$@"
