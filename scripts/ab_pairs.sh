#!/usr/bin/env bash
# Alternating before/after benchmark pairs between two revisions:
#
#   scripts/ab_pairs.sh PARENT_REV CHANGE_REV WORKLOAD PAIRS [SECONDS] [FIRST_SEED]
#   scripts/ab_pairs.sh HEAD~1 HEAD corpus_cex 10 20 11
#
# Each revision is cloned from this repository into
# ${TMPDIR:-/tmp}/lalrcex-ab/<commit>/src and built into its own target
# directory next to it (both are reused by later invocations). Pair k runs
# `perfbench/run.sh --workload WORKLOAD --seed FIRST_SEED+k-1 --seconds
# SECONDS --trace 0` once per side; odd pairs run the parent first, even
# pairs the change. SECONDS defaults to 20 and FIRST_SEED to 1.
#
# Prints the pair table EXPERIMENTS.md uses, then each side's median and
# interquartile range per metric and the number of pairs in which the
# change was better. Exits nonzero if any run is not `"correct": true` or
# reports failed operations. Works offline; needs git, cargo, bash and awk.
set -euo pipefail

if (($# < 4 || $# > 6)); then
  sed -n '2,17p' "$0" >&2
  exit 2
fi
parent_rev=$1 change_rev=$2 workload=$3 pairs=$4
seconds=${5:-20}
first_seed=${6:-1}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work="${TMPDIR:-/tmp}/lalrcex-ab"

# Clones and builds revision $1; prints its directory.
prepare() {
  local sha dir
  sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
  dir="$work/$sha"
  if [[ ! -d "$dir/src" ]]; then
    mkdir -p "$dir"
    git clone --quiet --no-checkout "$root" "$dir/src"
    git -C "$dir/src" checkout --quiet --detach "$sha"
  fi
  CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
    --manifest-path "$dir/src/Cargo.toml" -p lalrcex-cli >&2
  CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
    --manifest-path "$dir/src/perfbench/Cargo.toml" >&2
  echo "$dir"
}

parent_dir=$(prepare "$parent_rev")
change_dir=$(prepare "$change_rev")
results="$work/results-$workload-$(date +%s).tsv"
: >"$results"

# Runs side $1 (parent|change) from directory $2 as run $3 of pair $5,
# with seed $4; appends one tab-separated row `pair side order seed json`
# to the results file. A run that fails outright counts as not correct.
run_side() {
  local out
  out=$(CARGO_TARGET_DIR="$2/target" bash "$2/src/perfbench/run.sh" \
    --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1) || true
  [[ "$out" == \{* ]] || out='{"correct": false}'
  printf '%s\t%s\t%s\t%s\t%s\n' "$5" "$1" "$3" "$4" "$out" >>"$results"
}

for ((k = 1; k <= pairs; k++)); do
  seed=$((first_seed + k - 1))
  if ((k % 2 == 1)); then
    run_side parent "$parent_dir" 1 "$seed" "$k"
    run_side change "$change_dir" 2 "$seed" "$k"
  else
    run_side change "$change_dir" 1 "$seed" "$k"
    run_side parent "$parent_dir" 2 "$seed" "$k"
  fi
  echo "pair $k of $pairs done" >&2
done

echo "$workload: $pairs pairs, seeds $first_seed-$((first_seed + pairs - 1)), $seconds s;" \
  "parent $(git -C "$root" rev-parse --short "$parent_rev")," \
  "change $(git -C "$root" rev-parse --short "$change_rev")"
echo
awk -F'\t' '
BEGIN {
  n = split("setup_s wall_s ops_per_s op_ms_p50 op_ms_p90 decided_frac peak_rss_mb", m, " ")
  split("(ms) (s) (1/s) (ms) (ms) x (MB)", unit, " ")
  split("-1 -1 1 -1 -1 1 -1", up, " ")  # 1 = higher is better
  printf "| pair | side (order) | seed | correct | attempted | failed |"
  for (i = 1; i <= n; i++) printf " `%s`%s |", m[i], (unit[i] == "x" ? "" : " " unit[i])
  printf "\n|---|---|---:|---|---:|---:|"
  for (i = 1; i <= n; i++) printf "---:|"
  printf "\n"
  bad = 0
}
function field(json, key,    s) {
  if (!match(json, "\"" key "\": [^,}]*")) return ""
  s = substr(json, RSTART, RLENGTH)
  sub(/^[^:]*: /, "", s)
  return s
}
function metric(json, key,    s) {
  if (!match(json, "\"" key "\": \\{\"value\": [^,}]*")) return 0
  s = substr(json, RSTART, RLENGTH)
  sub(/.*: /, "", s)
  return s + 0
}
function fmt(i, v) {
  if (m[i] == "setup_s") return sprintf("%.2f", v * 1000)
  if (m[i] == "decided_frac" || v < 1) return sprintf("%.3f", v)
  if (m[i] == "peak_rss_mb" || v >= 100) return sprintf("%.1f", v)
  return sprintf("%.2f", v)
}
# Linear-interpolation quantile q of the sorted a[1..k].
function quant(a, k, q,    p, lo) {
  p = 1 + (k - 1) * q
  lo = int(p)
  return lo >= k ? a[k] : a[lo] + (p - lo) * (a[lo + 1] - a[lo])
}
function sorted(side, i, out,    k, j, t, x) {
  k = cnt[side]
  for (j = 1; j <= k; j++) out[j] = val[side, j, i]
  for (j = 2; j <= k; j++) {
    x = out[j]
    for (t = j - 1; t >= 1 && out[t] > x; t--) out[t + 1] = out[t]
    out[t + 1] = x
  }
  return k
}
{
  pair = $1; side = $2; json = $5
  correct = field(json, "correct"); failed = field(json, "failed")
  if (correct != "true" || failed != "0") bad++
  printf "| %s | %s (%s) | %s | %s | %s | %s |", pair, side, $3, $4, correct, field(json, "attempted"), failed
  c = ++cnt[side]
  for (i = 1; i <= n; i++) {
    v = metric(json, m[i])
    val[side, c, i] = v
    by_pair[pair, side, i] = v
    printf " %s |", fmt(i, v)
  }
  printf "\n"
  if (!(pair in pairs_seen)) npairs++
  pairs_seen[pair] = 1
}
END {
  for (s = 1; s <= 2; s++) {
    side = (s == 1 ? "parent" : "change")
    if (!cnt[side]) continue
    printf "| median | %s | | | | |", side
    for (i = 1; i <= n; i++) { k = sorted(side, i, a); printf " %s |", fmt(i, quant(a, k, 0.5)) }
    printf "\n| IQR | %s | | | | |", side
    for (i = 1; i <= n; i++) {
      k = sorted(side, i, a)
      printf " %s–%s |", fmt(i, quant(a, k, 0.25)), fmt(i, quant(a, k, 0.75))
    }
    printf "\n"
  }
  printf "\nchange better than parent, pairs of %d:", npairs
  for (i = 1; i <= n; i++) {
    better = 0
    for (p in pairs_seen) {
      d = by_pair[p, "change", i] - by_pair[p, "parent", i]
      if (d * up[i] > 0) better++
    }
    printf " %s %d;", m[i], better
  }
  printf "\n"
  if (bad) {
    printf "%d run(s) not correct or with failed operations\n", bad > "/dev/stderr"
    exit 1
  }
}' "$results"
