#!/bin/sh
# Interleaved A/B of the perf ledger between two built checkouts.
#
#   scripts/ledger-ab.sh BASE HEAD PAIRS SECONDS SEED WORKLOAD...
#
# BASE and HEAD are checkouts in which `dune build` has built
# bench/ledger/ledger.exe. For each workload, PAIRS pairs of
#   ledger.exe --workload W --seed SEED --seconds SECONDS
# run from the current directory, base first in odd pairs and head
# first in even ones. The script prints every run's end-to-end metrics,
# then per metric the base's median and quartiles (computed as the
# ledger computes its own), the head's median, the ratio head / base of
# the medians, and how many pairs head won.
# It only reports: it exits 0 whatever the numbers, and a run that
# fails prints its output.
set -u
if [ "$#" -lt 6 ]; then
  echo "usage: $0 BASE HEAD PAIRS SECONDS SEED WORKLOAD..." >&2
  exit 2
fi
base=$1 head=$2 pairs=$3 seconds=$4 seed=$5
shift 5
runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT

# The value of metric $1 in the ledger's last line, file $2.
metric() {
  tail -n 1 "$2" | sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p"
}

for w in "$@"; do
  i=1
  while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
      if [ "$side" = base ]; then dir=$base; else dir=$head; fi
      f="$runs/$side.$i"
      if ! "$dir/_build/default/bench/ledger/ledger.exe" --workload "$w" \
           --seed "$seed" --seconds "$seconds" > "$f" 2>&1; then
        echo "$w pair $i $side: the run failed"
        cat "$f"
      fi
      echo "$w pair $i $side: ops_per_s=$(metric ops_per_s "$f")" \
        "setup_s=$(metric setup_s "$f") heap_peak_mb=$(metric heap_peak_mb "$f")"
    done
    i=$((i + 1))
  done
  for m in ops_per_s setup_s heap_peak_mb; do
    i=1
    while [ "$i" -le "$pairs" ]; do
      echo "$(metric "$m" "$runs/base.$i") $(metric "$m" "$runs/head.$i")"
      i=$((i + 1))
    done | awk -v w="$w" -v m="$m" '
      # Quartile i (1 to 3) of the sorted a[0..n-1] by the "exclusive"
      # method of Python statistics.quantiles, which the ledger uses for
      # its own quartiles (bench/ledger/measure.ml); q(a, n, 2) is the
      # median.
      function q(a, n, i,   c, j, d) {
        if (n < 2) return a[0]
        c = n + 1; j = int(i * c / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        d = i * c - 4 * j
        return (a[j - 1] * (4 - d) + a[j] * d) / 4
      }
      function sort(a, n,   i, j, t) {
        for (i = 1; i < n; i++)
          for (j = i; j > 0 && a[j - 1] > a[j]; j--) {
            t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
          }
      }
      BEGIN { n = 0; wins = 0 }
      $1 != "" && $2 != "" {
        b[n] = $1; h[n] = $2
        if (m == "ops_per_s" ? $2 > $1 : $2 < $1) wins++
        n++
      }
      END {
        if (n == 0) { printf "%s %s: no complete pair\n", w, m; exit }
        sort(b, n); sort(h, n)
        printf "%s %s: base median %.6g (q1 %.6g, q3 %.6g), head median %.6g, ratio %.4f, head won %d of %d\n",
          w, m, q(b, n, 2), q(b, n, 1), q(b, n, 3), q(h, n, 2),
          q(h, n, 2) / q(b, n, 2), wins, n
      }'
  done
done
exit 0
