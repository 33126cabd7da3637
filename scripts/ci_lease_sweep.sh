#!/usr/bin/env bash
# Kill-and-reclaim drill for the work-stealing scheduler: three worker
# processes lease cells from one shared store directory, one of them is
# SIGKILLed mid-sweep, and the survivors must finish the whole grid with
# the merged report byte-identical to an uninterrupted single-process
# run. Also checks the `stats` CSV over the surviving stores against the
# single-process run's store, smoke-tests `stats` and `compact` over
# them (compaction must not change the merged report), and
# the observability surface: one survivor runs with --trace-out and the
# exported Chrome trace must strict-parse with the complete-event schema
# (copied to ./trace_lease_sweep.json for artifact upload), and a
# `metrics --format json` sweep must emit a parseable registry dump.
# shellcheck source=scripts/ci_lib.sh
. "$(dirname "$0")/ci_lib.sh"

BIN=${1:?usage: ci_lease_sweep.sh path/to/campaign_sweep}
ci_require_bin "$BIN"

# Enough cells x trials that the victim is still mid-sweep when killed:
# at 30 trials a cell a lone worker needs ~0.1-0.2 s for the grid, where
# 3 trials let it finish in 20-30 ms, before the 10 ms poll below saw
# its first claim. Delays include 60s so cell costs are heterogeneous
# like a real matrix.
common=(--trials 30 --delays 0,5,60 --quiet)
# ~400ms of lease silence before survivors presume a peer dead: well
# above one trial's duration (renewals land per trial), well below the
# job timeout.
lease=(--workers-dir "$tmp/wd" --expiry-scans 8 --idle-backoff-ms 50)

# Golden: one process, whole grid, with its own store for the stats
# comparison below.
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" --threads 2 \
  --store "$tmp/single.store" --csv "$tmp/single.csv" --json "$tmp/single.json"

# Three workers race the same grid; the victim starts first so it holds
# claims when the kill lands. NO `timeout` wrapper here: $! must be the
# sweep process itself, or the kill below would hit the wrapper and
# leave the worker alive (making the whole drill vacuous). The kill IS
# this process's timeout.
"$BIN" "${common[@]}" "${lease[@]}" --threads 1 \
  --worker-id victim > /dev/null 2>&1 &
victim_pid=$!

# Kill only once the victim demonstrably holds leases: its lease log has
# grown past the manifest record. Polling keeps the drill timing-robust.
manifest_bytes=0
for _ in $(seq 1 500); do
  if [ -f "$tmp/wd/victim.lease" ]; then
    size=$(stat -c %s "$tmp/wd/victim.lease" 2>/dev/null || echo 0)
    if [ "$manifest_bytes" -eq 0 ] && [ "$size" -gt 8 ]; then
      manifest_bytes=$size  # magic + manifest landed
    elif [ "$manifest_bytes" -gt 0 ] && [ "$size" -gt "$manifest_bytes" ]; then
      break  # at least one claim record is on disk
    fi
  fi
  sleep 0.01
done
if ! kill -9 "$victim_pid" 2>/dev/null; then
  echo "victim finished before the kill landed; drill inconclusive" >&2
  exit 1
fi
rc=0
wait "$victim_pid" 2>/dev/null || rc=$?
if [ "$rc" -ne 137 ]; then
  echo "victim exited $rc, not SIGKILL (137); drill inconclusive" >&2
  exit 1
fi
echo "[lease drill] victim SIGKILLed mid-sweep"

timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" "${lease[@]}" --threads 1 \
  --worker-id live-a --csv "$tmp/a.csv" --trace-out "$tmp/trace_a.json" \
  2> /dev/null &
a_pid=$!
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" "${lease[@]}" --threads 1 \
  --worker-id live-b --csv "$tmp/b.csv" 2> /dev/null &
b_pid=$!
wait "$a_pid"
wait "$b_pid"

# Every survivor saw the grid to completion and emitted the merged
# report — byte-identical to the single-process run, victim's partial
# store included.
cmp "$tmp/single.csv" "$tmp/a.csv"
cmp "$tmp/single.csv" "$tmp/b.csv"
timeout "$SWEEP_TIMEOUT" "$BIN" merge --workers-dir "$tmp/wd" --quiet \
  --csv "$tmp/merged.csv" --json "$tmp/merged.json"
cmp "$tmp/single.csv" "$tmp/merged.csv"
cmp "$tmp/single.json" "$tmp/merged.json"

# Store-backed analysis runs over the same directory.
timeout "$SWEEP_TIMEOUT" "$BIN" stats --workers-dir "$tmp/wd" \
  > "$tmp/stats.txt"
grep -q "per-cell distributions" "$tmp/stats.txt"
grep -q "per-axis marginals" "$tmp/stats.txt"
# The CSV carries no orphan count, so the kill's duplicates and orphans
# must not move a byte of it against the single-process store's.
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format csv "$tmp/single.store" \
  > "$tmp/single_stats.csv"
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format csv --workers-dir "$tmp/wd" \
  > "$tmp/wd_stats.csv"
cmp "$tmp/single_stats.csv" "$tmp/wd_stats.csv"

# Structured emitters stay parseable even over the kill's leftovers
# (orphan trials, duplicated cells), and diffing the directory against
# itself pairs every cell with zero delta.
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format json --workers-dir "$tmp/wd" \
  | python3 -m json.tool > /dev/null
timeout "$SWEEP_TIMEOUT" "$BIN" diff --format json "$tmp/wd" "$tmp/wd" \
  > "$tmp/selfdiff.json"
python3 -m json.tool "$tmp/selfdiff.json" > /dev/null
grep -q '"significant_cells":0' "$tmp/selfdiff.json"

# live-a ran with --trace-out: the export must strict-parse as Chrome
# trace-event JSON with the complete-event schema, and must contain the
# campaign-layer spans. Kept as a per-push artifact (chrome://tracing /
# Perfetto will open it directly off the CI run).
python3 - "$tmp/trace_a.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "trace has no events"
for e in events:
    assert e["ph"] == "X", e
    for key in ("name", "cat", "ts", "dur", "pid", "tid"):
        assert key in e, (key, e)
cats = {e["cat"] for e in events}
assert "campaign" in cats, cats
print(f"[lease drill] trace_a.json: {len(events)} complete events")
PY
cp "$tmp/trace_a.json" trace_lease_sweep.json

# The metrics subcommand sweeps and dumps the registry; the JSON form
# must survive a strict parser and carry the campaign counters.
timeout "$SWEEP_TIMEOUT" "$BIN" metrics --format json \
  --trials 1 --delays 0 --quiet > "$tmp/metrics.json"
python3 -m json.tool "$tmp/metrics.json" > /dev/null
grep -q '"campaign.cells"' "$tmp/metrics.json"
grep -q '"campaign.trials"' "$tmp/metrics.json"

# Compaction drops the kill's leftovers without changing the report.
for store in "$tmp"/wd/*.store; do
  timeout "$SWEEP_TIMEOUT" "$BIN" compact "$store"
done
timeout "$SWEEP_TIMEOUT" "$BIN" merge --workers-dir "$tmp/wd" --quiet \
  --csv "$tmp/merged2.csv"
cmp "$tmp/single.csv" "$tmp/merged2.csv"

echo "lease sweep with SIGKILL + reclaim merges byte-identical to single-process run"
