#!/usr/bin/env bash
# CI bench-smoke: run one ablation benchmark with machine-readable JSON
# output — the seed of the BENCH_*.json perf trajectory tracked as a
# workflow artifact per push.
#
#   ci_bench.sh path/to/build-dir [out.json] [bench-name] [grep...]
#
# The human-readable console report still goes to the job log; the JSON
# (benchmark names, real/cpu time, counters) goes to the artifact so
# regressions — cells/second, per-stage trial breakdowns — are diffable
# across commits. Extra args are fixed strings the JSON must contain,
# sanity-checked before publishing.
#
# One bench can publish under several artifact names — bench-smoke runs
# abl_trial_hotpath from a SIMD build as BENCH_trial_hotpath.json and
# from a -DMSA_ENABLE_SIMD=OFF build as BENCH_trial_hotpath_scalar.json,
# keeping the two dispatch modes' series separate per commit.
# shellcheck source=scripts/ci_lib.sh
. "$(dirname "$0")/ci_lib.sh"

BUILD_DIR=${1:?usage: ci_bench.sh path/to/build-dir [out.json] [bench-name] [grep...]}
OUT=${2:-BENCH_campaign_scaling.json}
BENCH=${3:-abl_campaign_scaling}
shift $(( $# > 3 ? 3 : $# ))
EXPECT=("$@")
if [ "${#EXPECT[@]}" -eq 0 ] && [ "$BENCH" = "abl_campaign_scaling" ]; then
  EXPECT=(BM_SweepThreads BM_SweepWorkStealing)
fi

BIN="$BUILD_DIR/bench/$BENCH"
ci_require_bin "$BIN"

# A wedged benchmark must fail the job fast instead of stalling the
# runner until the 6-hour job limit (each full run takes well under a
# minute on an idle machine).
timeout 600 "$BIN" \
  --benchmark_out="$tmp/bench.json" --benchmark_out_format=json

# Sanity-check before publishing: the artifact must actually contain the
# expected benchmark entries (and counters, for the per-stage series).
grep -q '"benchmarks"' "$tmp/bench.json"
for pattern in "${EXPECT[@]}"; do
  grep -qF "$pattern" "$tmp/bench.json"
done
mv "$tmp/bench.json" "$OUT"
echo "ci_bench.sh: wrote $OUT"
