#!/usr/bin/env bash
# Segmented-compaction byte-identity drill for `campaign_sweep compact`.
#
#   ci_compact_sweep.sh path/to/campaign_sweep
#
# The store contract this drill pins: compaction may rewrite the log
# into sorted block-indexed segments, but every analysis artifact must
# come out byte-identical afterwards. Concretely:
#
#  - stats/diff in all three formats (text/CSV/JSON), plus a --cells
#    slice of each, are captured from flat stores, both stores are
#    compacted, and every artifact is re-captured and cmp'd byte for
#    byte.
#  - the regression gate replays against the segmented stores with the
#    same exit code, verdict line, and diff JSON as the flat originals.
#  - a budgeted sweep, its log torn by a few bytes, compacted
#    mid-campaign (dropping the torn cell's orphan trials) and resumed
#    to completion renders the exact single-process stats and --cells
#    slice from segment + log tail; compacted again, it folds back into
#    exactly one live segment, drops nothing AND still renders the stats.
#  - a copy of the checked-in golden store compacted into a segment
#    still emits the pre-refactor golden stats bytes, its segment,
#    .levels sidecar and trimmed log match the CRC-32 pins in
#    tests/data/golden_4axis.compacted.crc, and a second compact of it
#    is a no-op (bytes_before == bytes_after).
# shellcheck source=scripts/ci_lib.sh
. "$(dirname "$0")/ci_lib.sh"

BIN=${1:?usage: ci_compact_sweep.sh path/to/campaign_sweep}
ci_require_bin "$BIN"

# 2 defenses x 2 models x 3 delays = 12 cells; enough for --cells to
# carve a real sub-grid and for the gate drill to resolve a trip.
axes=(--defenses baseline,zero_on_free --models resnet50_pt,squeezenet_pt
      --delays 0,5,10 --scrubbers 0)
common=(--trials 3 --threads 2 --quiet)

# Side A: the normal sweep. Side B: the same grid with power-cycling
# on, which kills remanence at these delays — so A->B is a guaranteed
# attack-favoring regression for the gate leg below.
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" "${axes[@]}" \
  --store "$tmp/flat_a.store" > /dev/null
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" "${axes[@]}" \
  --axis power_cycled=1 --store "$tmp/flat_b.store" > /dev/null

# capture DIR STORE_A STORE_B: every analysis artifact the drill
# byte-compares — stats and diff in all three formats plus a --cells
# slice, and the regress-gate verdict/JSON/exit-code triple.
capture() {
  local dir=$1 a=$2 b=$3
  mkdir -p "$dir"
  local fmt
  for fmt in text csv json; do
    timeout "$SWEEP_TIMEOUT" "$BIN" stats --format "$fmt" "$a" \
      > "$dir/stats.$fmt"
    timeout "$SWEEP_TIMEOUT" "$BIN" diff --format "$fmt" "$b" "$a" \
      > "$dir/diff.$fmt"
  done
  timeout "$SWEEP_TIMEOUT" "$BIN" stats --cells delay_s=5,10 \
    --cells defense=baseline "$a" > "$dir/stats_cells.txt"
  timeout "$SWEEP_TIMEOUT" "$BIN" diff --format csv --cells delay_s=5,10 \
    "$b" "$a" > "$dir/diff_cells.csv"
  local rc=0
  timeout "$SWEEP_TIMEOUT" "$BIN" diff --format json --exit-on-significant \
    --direction regress "$b" "$a" \
    > "$dir/gate.json" 2> "$dir/gate_verdict.txt" || rc=$?
  echo "$rc" > "$dir/gate_rc.txt"
}

capture "$tmp/before" "$tmp/flat_a.store" "$tmp/flat_b.store"
# Power-cycling kills every baseline cell, so the gate must have
# tripped (exit 4) — otherwise the leg proves nothing.
grep -q '^4$' "$tmp/before/gate_rc.txt"
grep -q "regression gate TRIPPED" "$tmp/before/gate_verdict.txt"

# --- compact both sides, re-capture, byte-compare ---------------------
cp "$tmp/flat_a.store" "$tmp/seg_a.store"
cp "$tmp/flat_b.store" "$tmp/seg_b.store"
timeout "$SWEEP_TIMEOUT" "$BIN" compact "$tmp/seg_a.store" 2> /dev/null
timeout "$SWEEP_TIMEOUT" "$BIN" compact "$tmp/seg_b.store" 2> /dev/null
[ -f "$tmp/seg_a.store.levels" ]
[ -f "$tmp/seg_b.store.levels" ]

capture "$tmp/after" "$tmp/seg_a.store" "$tmp/seg_b.store"
for f in stats.text stats.csv stats.json stats_cells.txt \
         diff.text diff.csv diff.json diff_cells.csv \
         gate.json gate_verdict.txt gate_rc.txt; do
  cmp "$tmp/before/$f" "$tmp/after/$f"
done
echo "compact byte-identity: 11/11 artifacts identical after compaction"

# --- mid-campaign compaction ----------------------------------------
# The first half of the grid (--cell-budget, exit 3 = incomplete) is
# swept, its log torn by 5 bytes as a crash mid-append leaves it, and
# compacted (segment #1): the torn tail goes, and the trials of the cell
# whose record it tore are dropped as orphans. The sweep resumes to
# completion on top of it, and a second compact folds segment and log
# into one new segment with nothing left to drop. Both the mixed store
# before that compact and the one segment after it must render the
# exact single-process stats; the mixed store also its --cells slice.
rc=0
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" "${axes[@]}" \
  --cell-budget 6 --store "$tmp/resumed.store" > /dev/null || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "budgeted sweep exited $rc, expected incomplete 3" >&2
  exit 1
fi
truncate -s -5 "$tmp/resumed.store"
timeout "$SWEEP_TIMEOUT" "$BIN" compact "$tmp/resumed.store" \
  2> "$tmp/torn_compact.txt"
grep -Eq '\([1-9][0-9]* trial record\(s\), [0-9]+ cell record\(s\) dropped\)' \
  "$tmp/torn_compact.txt"
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" "${axes[@]}" \
  --store "$tmp/resumed.store" --resume > /dev/null
# Segment #1 with the resumed half in the log on top: the mixed store
# is read through the segment-plus-log merge before the second compact.
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format csv "$tmp/resumed.store" \
  > "$tmp/mixed_stats.csv"
cmp "$tmp/before/stats.csv" "$tmp/mixed_stats.csv"
# The --cells slice selects among segment and log cell records alike.
timeout "$SWEEP_TIMEOUT" "$BIN" stats --cells delay_s=5,10 \
  --cells defense=baseline "$tmp/resumed.store" > "$tmp/mixed_cells.txt"
cmp "$tmp/before/stats_cells.txt" "$tmp/mixed_cells.txt"
timeout "$SWEEP_TIMEOUT" "$BIN" compact "$tmp/resumed.store" \
  2> "$tmp/resumed_compact.txt"
grep -q " 1 segment(s) (0 trial record(s), 0 cell record(s) dropped)" \
  "$tmp/resumed_compact.txt"
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format csv "$tmp/resumed.store" \
  > "$tmp/resumed_stats.csv"
cmp "$tmp/before/stats.csv" "$tmp/resumed_stats.csv"
echo "torn compact -> resume -> compact: segment+log and 1 live segment, stats byte-identical to flat sweep"

# --- golden store through compaction ----------------------------------
# The oldest sweep on record must ride through the segmented rewrite and
# still print the checked-in pre-refactor stats goldens.
# The copy keeps its file name: segment file names embed it, and the
# sidecar names the segment, so the CRC pins hold only under that name.
mkdir -p "$tmp/golden"
golden=$tmp/golden/golden_4axis.store
cp "$REPO/tests/data/golden_4axis.store" "$golden"
timeout "$SWEEP_TIMEOUT" "$BIN" compact "$golden" 2> /dev/null
# A byte change fails here even when every stats artifact still matches.
python3 -c '
import sys, zlib
pins, d = sys.argv[1], sys.argv[2]
checked = 0
for line in open(pins):
    if not line.strip() or line.startswith("#"):
        continue
    name, want = line.split()
    got = zlib.crc32(open(d + "/" + name, "rb").read())
    assert got == int(want, 16), f"{name}: crc32 {got:08x} != pinned {want}"
    checked += 1
assert checked == 3, f"{pins}: {checked} pins, expected 3"
print("golden store: compacted segment, .levels and log match their CRC-32 pins")
' "$REPO/tests/data/golden_4axis.compacted.crc" "$tmp/golden"
timeout "$SWEEP_TIMEOUT" "$BIN" stats "$golden" \
  > "$tmp/golden_stats.txt"
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format csv "$golden" \
  > "$tmp/golden_stats.csv"
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format json "$golden" \
  > "$tmp/golden_stats.json"
cmp "$REPO/tests/data/golden_v1_stats.txt" "$tmp/golden_stats.txt"
cmp "$REPO/tests/data/golden_v1_stats.csv" "$tmp/golden_stats.csv"
cmp "$REPO/tests/data/golden_v1_stats.json" "$tmp/golden_stats.json"
# Re-compacting the compacted store is a stable no-op.
timeout "$SWEEP_TIMEOUT" "$BIN" compact "$golden" \
  2> "$tmp/golden_recompact.txt"
python3 - "$tmp/golden_recompact.txt" <<'EOF'
import re, sys
line = open(sys.argv[1]).read()
m = re.search(r"compacted .*: (\d+) -> (\d+) bytes", line)
assert m, line
assert m.group(1) == m.group(2), f"re-compact moved bytes: {line}"
print("golden store: compacted stats match goldens, re-compact is a no-op")
EOF

echo "ci_compact_sweep.sh: all compaction byte-identity checks passed"
