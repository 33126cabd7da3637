#!/usr/bin/env bash
# End-to-end durability check for the campaign store: sweep the grid as
# two shard processes, "crash" shard 1 mid-sweep via the cell budget and
# tear its store's last frame, resume it, merge both stores, and require
# the merged CSV/JSON to be byte-identical to an uninterrupted
# single-process sweep.
# shellcheck source=scripts/ci_lib.sh
. "$(dirname "$0")/ci_lib.sh"

BIN=${1:?usage: ci_shard_sweep.sh path/to/campaign_sweep}
ci_require_bin "$BIN"

common=(--trials 2 --delays 0,5 --quiet)

# Golden: one process, whole grid.
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" --threads 4 \
  --csv "$tmp/single.csv" --json "$tmp/single.json"

# Shard 0 sweeps its half of the grid to completion.
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" --threads 2 --shard 0/2 \
  --store "$tmp/s0.store" > /dev/null

# Shard 1 is killed after 2 cells (exit 3 = incomplete), its last frame
# is torn by chopping 5 bytes off the store (a kill mid-append), and it is
# restarted with --resume on a different thread count: the resume chops
# the torn tail and re-runs the cell whose record it held.
rc=0
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" --threads 1 --shard 1/2 \
  --store "$tmp/s1.store" --cell-budget 2 > /dev/null || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "expected exit 3 from the budget-interrupted shard, got $rc" >&2
  exit 1
fi
truncate -s -5 "$tmp/s1.store"
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" --threads 4 --shard 1/2 \
  --store "$tmp/s1.store" --resume > /dev/null

# Merge the shard stores and diff against the single-process report.
timeout "$SWEEP_TIMEOUT" "$BIN" merge --quiet --csv "$tmp/merged.csv" \
  --json "$tmp/merged.json" "$tmp/s0.store" "$tmp/s1.store"
cmp "$tmp/single.csv" "$tmp/merged.csv"
cmp "$tmp/single.json" "$tmp/merged.json"
echo "shard + crash/torn-tail resume + merge report is byte-identical to single-process sweep"
