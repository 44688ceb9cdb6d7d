#!/usr/bin/env bash
# The house protocol for "did this change move a gated workload": run the
# released tdbench of a parent checkout and of a change checkout alternately
# on one workload, the side that goes first switching every pair, and print
# what a claim needs — every run, wins and ties per metric, both medians and
# the distance between the quartiles of the parent's own runs.
#
#   scripts/pairs.sh <parent-checkout> <change-checkout> <workload> [pairs=10] [seconds=30]
#
# The box drifts 20-30 % between minutes, so two runs made minutes apart say
# nothing; the two runs of a pair are back to back. Pair i runs with --seed i.
# Each checkout's tdbench is built first, into <checkout>/target, by the
# benchmark's own run.sh (it finds its `td` beside itself, so the two sides
# never mix). A gain is nine wins in ten and medians further apart than the
# parent's quartiles; below that distance write "unresolved", not "unchanged".
set -euo pipefail
if [ $# -lt 3 ]; then
  sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-30}
metrics="setup_s ops_per_s cpu_us_per_op rss_mb"

# Bring both builds up to date with their sources (a no-op when they are).
for dir in "$parent" "$change"; do
  (cd "$dir" && bash crates/bench/src/bin/tdbench/run.sh \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 >/dev/null)
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# One run: print it, and append "<side> <setup_s> <ops_per_s> <cpu_us_per_op> <rss_mb>" to $runs.
run() {
  local side=$1 dir=$2 seed=$3 out verdict values floor
  out=$("$dir/target/release/tdbench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
  verdict=$(tail -n 1 <<<"$out")
  if ! grep -q '"correct":true' <<<"$verdict" || ! grep -q '"failed":0' <<<"$verdict"; then
    echo "pair $seed $side: not a clean run: $verdict" >&2
    exit 1
  fi
  values=""
  for m in $metrics; do
    values="$values $(sed -E "s/.*\"$m\":\{\"value\":([0-9.eE+-]+).*/\1/" <<<"$verdict")"
  done
  floor=$(grep -o '"floor of one round: [^"]*"' <<<"$out" | tr -d '"' || true)
  echo "$side$values" >>"$runs"
  printf 'pair %2d %-6s setup_s=%s ops_per_s=%s cpu_us_per_op=%s rss_mb=%s | %s\n' \
    "$seed" "$side" $values "$floor"
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) = 1 ]; then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
done

echo
col=2
for m in $metrics; do
  higher=0
  [ "$m" = ops_per_s ] && higher=1
  awk -v col="$col" -v m="$m" -v higher="$higher" '
    function at(a, n, q,   pos, lo) {           # linear-interpolated quantile of sorted a[1..n]
      pos = 1 + (n - 1) * q; lo = int(pos)
      return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
    }
    function sorted(src, dst, n,   i, j, t) {
      for (i = 1; i <= n; i++) dst[i] = src[i]
      for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
    }
    $1 == "parent" { p[++np] = $col }
    $1 == "change" { c[++nc] = $col }
    END {
      for (i = 1; i <= np; i++) {
        if (c[i] == p[i]) ties++
        else if ((c[i] > p[i]) == (higher == 1)) wins++
      }
      sorted(p, sp, np); sorted(c, sc, nc)
      printf "%-14s change wins %d of %d, ties %d | median parent %.6g change %.6g (%+.2f%%) | parent quartile distance %.6g\n", \
        m, wins, np, ties, at(sp, np, 0.5), at(sc, nc, 0.5), \
        100 * (at(sc, nc, 0.5) / at(sp, np, 0.5) - 1), at(sp, np, 0.75) - at(sp, np, 0.25)
    }' "$runs"
  col=$((col + 1))
done
