#!/usr/bin/env bash
# The repo benchmark (benchmark/, BENCHMARK.json) must build against the
# current crates, pass its self-tests and complete a quick run of all
# four workloads: a change that breaks the harness's use of the public
# API fails here, not when someone next measures.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick
