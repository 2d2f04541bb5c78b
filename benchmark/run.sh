#!/usr/bin/env bash
# Builds the benchmark (release, offline, against vendor/) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> [--seconds 30] [--trace 0|1] [--quick]
#
# Without --workload it runs all four workloads, one process each (set-up
# time and peak memory are per process). Without --trace a run makes all
# three passes and prints every metric; `--trace 0` makes the measured
# pass only, `--trace 1` the layer and traced passes only. The last line
# of standard output is the result as one JSON object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to standard error: standard output is the result's.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

bin="$target/release/smarth-benchmark"
case " $* " in
  *" --workload "*)
    exec "$bin" --out-dir "$here/out" "$@"
    ;;
  *)
    for workload in shaped_bulk unshaped_bulk small_files sim_paper_scale; do
      "$bin" --out-dir "$here/out" --workload "$workload" "$@"
    done
    ;;
esac
