#!/usr/bin/env bash
# Regenerates every experiment into results/ (one .txt and one .csv per
# harness; google-benchmark binaries as .txt), plus a traced 4-lane
# `mpsort sort` and its traceprof report. Pass --full to forward the
# paper-scale flag to the harnesses.
set -u
cd "$(dirname "$0")/.."
BUILD=${BUILD:-build}
OUT=results
FULL=${1:-}
mkdir -p "$OUT"

harnesses=(fig5_speedup table_overhead table_complexity fig_cache_spm
           fig_sort table_balance table_modeled_baselines ablation_segment
           ablation_scheduler fig_hierarchy fig_hypercore table_external_io
           fig_gpu_coalescing table_sensitivity table_distributed)
for h in "${harnesses[@]}"; do
  echo "== $h"
  "$BUILD/bench/$h" $FULL          | tee "$OUT/$h.txt"   >/dev/null || exit 1
  "$BUILD/bench/$h" $FULL --csv    >    "$OUT/$h.csv"               || exit 1
done

for g in bench_baselines bench_micro; do
  echo "== $g"
  "$BUILD/bench/$g" | tee "$OUT/$g.txt" >/dev/null || exit 1
done
echo "== traceprof"
seq 1 200000 | shuf --random-source=<(yes) > "$OUT/pool_sort_input.txt"
"$BUILD/tools/mpsort" sort "$OUT/pool_sort_input.txt" \
  "$OUT/pool_sort_output.txt" --numeric --threads 4 \
  --trace "$OUT/pool_trace.json" > /dev/null || exit 1
"$BUILD/tools/traceprof" "$OUT/pool_trace.json" --top 10 \
  --json "$OUT/pool_prof.json" > "$OUT/traceprof.txt" || exit 1
echo "results written to $OUT/"
