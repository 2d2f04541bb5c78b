#!/usr/bin/env bash
# Sizes a flake: builds one test binary once, runs one test in it n
# times, prints `failed k of n` and keeps the first failure's output.
#
#   scripts/loop_test.sh "<cargo-test-args>" <test-name> <n>
#
#   scripts/loop_test.sh "--test namenode_sharding" shard_count_does_not_change_conformance_digests 150
#   scripts/loop_test.sh "-p smarth-sim --lib" tests::des_results_are_pinned_bit_for_bit 20
#
# The cargo arguments must select exactly one test binary, and the name
# must match exactly one test in it (`--exact`). The binary runs from its
# package directory, as under `cargo test`. The first failure's output
# goes to target/loop_test/<test-name>.first-failure.log. Exits 0 only
# when every run passed.
set -euo pipefail
if [ $# -ne 3 ] || ! [[ $3 =~ ^[0-9]+$ ]] || [ "$3" -eq 0 ]; then
  sed -n '2,14p' "$0" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
cargo_args=$1 name=$2 n=$3

# Build once. Cargo names every test executable it built together with
# the manifest of the package it belongs to.
# shellcheck disable=SC2086 # the cargo arguments are a word list
mapfile -t built < <(
  cargo test $cargo_args --no-run --message-format=json-render-diagnostics |
    jq -r 'select(.reason == "compiler-artifact" and .profile.test and .executable != null)
           | "\(.executable)\t\(.manifest_path)"'
)
if [ "${#built[@]}" -ne 1 ]; then
  echo "loop_test: \"$cargo_args\" built ${#built[@]} test binaries; select exactly one" >&2
  exit 2
fi
exe=${built[0]%%$'\t'*}
dir=$(dirname "${built[0]#*$'\t'}")

matches=$(cd "$dir" && "$exe" --list --exact "$name" | grep -c ': test$' || true)
if [ "$matches" -ne 1 ]; then
  echo "loop_test: no test named exactly '$name' in $exe" >&2
  exit 2
fi

log="target/loop_test/${name//[:\/]/_}.first-failure.log"
mkdir -p "$(dirname "$log")"
rm -f "$log"
failed=0
for ((i = 1; i <= n; i++)); do
  if ! out=$(cd "$dir" && "$exe" --exact "$name" 2>&1); then
    failed=$((failed + 1))
    echo "run $i of $n failed" >&2
    if [ ! -e "$log" ]; then
      printf 'run %d of %d\n%s\n' "$i" "$n" "$out" >"$log"
    fi
  fi
done

echo "failed $failed of $n"
if [ "$failed" -gt 0 ]; then
  echo "first failure: $log"
  exit 1
fi
