#!/usr/bin/env bash
# Tier-1 verification: the release build must compile and every
# workspace test must pass. This is the gate every PR is held to
# (see ROADMAP.md); CI runs exactly this script so local runs and
# the workflow can never drift apart.
#
# `--workspace` matters: the root is a package too, so a bare
# `cargo test` runs its integration tests (tests/*.rs) only and none of
# the member crates' unit, property and golden-file tests.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
