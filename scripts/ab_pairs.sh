#!/usr/bin/env bash
# Alternated pairs of the repo benchmark, a parent commit against this
# tree: the measurement every claimed gain rests on (EXPERIMENTS.md).
#
#   scripts/ab_pairs.sh <parent-ref> --workload <w>[,<w>...] [--pairs 10] [--seed 1] [--work <dir>]
#
# Exports <parent-ref> into a temporary directory (`git archive`: the
# committed files, as the PR driver sees them, and nothing left behind in
# .git), builds both benchmarks offline into target directories of their
# own, and runs `--trace 0` pairs one after the other on one seed per
# pair (seed, seed+1, ...), parent first on odd pairs and change first on
# even ones. Several workloads, comma-separated, share the one build and
# run one after the other. Prints, per workload and per end-to-end metric
# of BENCHMARK.json: each side's median [quartiles] (exclusive method, as
# the driver computes them), the change of the median, the worst single
# pair's change, in how many pairs the change read better, and `gate ok`
# or `gate FAIL`: FAIL when the median moved the wrong way by more than
# the metric's `bound`. A metric whose two sides printed the same JSON
# number text in every pair is marked `same n/n`: equal bit for bit, not
# only to 4 digits. `--work <dir>` keeps sources, builds and every run's
# JSON there (a second call rebuilds incrementally); without it all of
# that is removed.
set -euo pipefail
usage() { sed -n '2,22p' "$0" >&2; exit 2; }
root="$(cd "$(dirname "$0")/.." && pwd)"
[ $# -ge 1 ] || usage
parent_ref=$1; shift
workload="" pairs=10 seed=1 work=""
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case $1 in
    --workload) workload=$2 ;;
    --pairs) pairs=$2 ;;
    --seed) seed=$2 ;;
    --work) work=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[ -n "$workload" ] || usage
if [ -z "$work" ]; then
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work/runs"
work="$(cd "$work" && pwd)"

parent_sha=$(git -C "$root" rev-parse --short "$parent_ref^{commit}")
rm -rf "$work/parent-src"
mkdir -p "$work/parent-src"
git -C "$root" archive "$parent_sha" | tar -x -C "$work/parent-src"
for side in parent change; do
  src=$root
  [ $side = parent ] && src=$work/parent-src
  cargo build --release --offline --manifest-path "$src/benchmark/Cargo.toml" \
    --target-dir "$work/$side-target" >&2
done

# One measured pass; the last line of standard output is the result. A
# run with failed operations exits non-zero and still counts: its JSON
# carries the failures, which the summary reports.
run() {
  "$work/$1-target/release/smarth-benchmark" --out-dir "$work/out-$1" \
    --workload "$2" --trace 0 --seed "$3" 2>/dev/null | tail -n 1 >"$work/runs/$1-$2-$3.json" || true
}
for workload in ${workload//,/ }; do
  for i in $(seq 1 "$pairs"); do
    s=$((seed + i - 1))
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    echo "$workload pair $i/$pairs seed $s: $order" >&2
    for side in $order; do run "$side" "$workload" "$s"; done
  done

  echo "$workload: parent $parent_sha against the tree at $(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD || echo ' + uncommitted changes'), $pairs pairs, seeds $seed-$((seed + pairs - 1)), $(nproc) cores"
  awk -v work="$work" -v workload="$workload" -v seed="$seed" -v pairs="$pairs" '
    # The value of `key` in a one-line JSON object, "" when absent or null.
    function field(json, key,    at, rest) {
      at = index(json, "\"" key "\":")
      if (!at) return ""
      rest = substr(json, at + length(key) + 3)
      sub(/^\{"value":/, "", rest)
      sub(/[,}].*/, "", rest)
      return rest == "null" ? "" : rest
    }
    # Quantile p of v[1..n] by the exclusive method (position p(n+1)).
    function quantile(v, n, p,    h, lo) {
      h = p * (n + 1)
      if (h < 1) h = 1
      if (h > n) h = n
      lo = int(h)
      return lo == n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function summary(side, name, out,    i, j, n, t, v) {
      n = 0
      for (i = 0; i < pairs; i++) if ((side, name, i) in value) v[++n] = value[side, name, i]
      for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
      if (!n) return 0
      out["median"] = quantile(v, n, 0.5)
      out["text"] = sprintf("%.4g [%.4g, %.4g]", out["median"], quantile(v, n, 0.25), quantile(v, n, 0.75))
      return n
    }
    /"end_to_end"/ { inside = 1 }
    /"per_layer"/ { inside = 0 }
    inside && /"name"/ { split($0, q, "\""); names[++count] = q[4] }
    inside && /"better"/ { split($0, q, "\""); better[names[count]] = q[4] }
    inside && /"bound"/ { split($0, q, ":"); bound[names[count]] = q[2] + 0 }
    END {
      split("parent change", sides, " ")
      for (s = 1; s <= 2; s++) for (i = 0; i < pairs; i++) {
        file = work "/runs/" sides[s] "-" workload "-" (seed + i) ".json"
        json = ""
        getline json < file
        close(file)
        if (json !~ /^\{/) { broken[sides[s]]++; continue }
        attempted[sides[s]] += field(json, "attempted")
        failed[sides[s]] += field(json, "failed")
        for (m = 1; m <= count; m++) {
          x = field(json, names[m])
          if (x != "") { value[sides[s], names[m], i] = x + 0; text[sides[s], names[m], i] = x }
        }
      }
      printf "%-20s %-30s %-30s %9s %9s %6s\n", "metric", "parent", "change", "d median", "worst", "wins"
      for (m = 1; m <= count; m++) {
        name = names[m]
        if (!summary("parent", name, a) || !summary("change", name, b)) continue
        # Changes are signed so that a positive one reads worse.
        sign = better[name] == "lower" ? 1 : -1
        wins = both = same = 0
        worst = ""
        for (i = 0; i < pairs; i++) if ((("parent", name, i) in value) && (("change", name, i) in value)) {
          both++
          d = value["change", name, i] - value["parent", name, i]
          if (sign * d < 0) wins++
          if (text["change", name, i] == text["parent", name, i]) same++
          p = value["parent", name, i]
          if (p && (worst == "" || sign * d / p > sign * worst)) worst = d / p
        }
        delta = a["median"] ? (b["median"] - a["median"]) / a["median"] : 0
        gate = sign * delta > bound[name] ? "gate FAIL" : "gate ok"
        printf "%-20s %-30s %-30s %9s %9s %3d/%d  %s%s\n", name, a["text"], b["text"], \
          a["median"] ? sprintf("%+.1f %%", 100 * delta) : "-", \
          worst == "" ? "-" : sprintf("%+.1f %%", 100 * worst), wins, both, gate, \
          same == both ? sprintf("  same %d/%d", same, both) : ""
      }
      for (s = 1; s <= 2; s++)
        printf "%s: %d of %d operations failed, %d runs without a result\n", sides[s], failed[sides[s]], attempted[sides[s]], broken[sides[s]]
    }
  ' "$root/BENCHMARK.json"
done
