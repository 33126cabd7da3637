#!/usr/bin/env bash
# Structured-output drill for `campaign_sweep stats/diff`: every emitted
# CSV/JSON artifact must survive a strict parser, a store diffed against
# a sharded copy of the same sweep must align by axis values with every
# delta exactly zero, a cross-family diff must pair the shared axes, a
# registry sweep over non-legacy axes (--axis) must flow through store,
# stats, and diff with thread-count-invariant bytes, the checked-in
# golden store must diff against a fresh twin to exactly zero, and
# the grid-axis flags must reject non-finite/negative/unknown values.
# shellcheck source=scripts/ci_lib.sh
. "$(dirname "$0")/ci_lib.sh"

BIN=${1:?usage: ci_diff_sweep.sh path/to/campaign_sweep}
ci_require_bin "$BIN"

# Small but non-trivial grid: 2 defenses x 2 models x 2 delays = 8 cells.
axes=(--defenses baseline,zero_on_free --delays 0,5 --scrubbers 0)
common=(--trials 2 --threads 2 --quiet)

# Sweep A, plus the SAME sweep split into two shard stores. Shards keep
# global cell indices, so the shard pair is a byte-faithful copy of A's
# results distributed over two files in a directory.
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" "${axes[@]}" \
  --store "$tmp/a.store" > /dev/null
mkdir "$tmp/shards"
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" "${axes[@]}" \
  --shard 0/2 --store "$tmp/shards/s0.store" > /dev/null
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" "${axes[@]}" \
  --shard 1/2 --store "$tmp/shards/s1.store" > /dev/null
# A different defense family on the same attack axes (the paper's A/B).
timeout "$SWEEP_TIMEOUT" "$BIN" "${common[@]}" \
  --defenses physical_aslr --delays 0,5 --scrubbers 0 \
  --store "$tmp/c.store" > /dev/null

# --- stats: every format round-trips through a strict parser ----------
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format json "$tmp/a.store" \
  > "$tmp/stats.json"
python3 -m json.tool "$tmp/stats.json" > /dev/null
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format csv "$tmp/a.store" \
  > "$tmp/stats.csv"
python3 - "$tmp/stats.csv" <<'EOF'
import csv, sys
with open(sys.argv[1], newline="") as f:
    rows = list(csv.reader(f, strict=True))
header, data = rows[0], rows[1:]
assert header[0] == "section", header
assert all(len(r) == len(header) for r in data), "ragged CSV"
sections = {r[0] for r in data}
assert sections == {"cell", "marginal"}, sections
assert sum(r[0] == "cell" for r in data) == 8, "expected 8 cell rows"
# Numeric columns of cell rows parse as floats (round-trip formatting).
rate = header.index("success_rate")
for r in data:
    if r[0] == "cell":
        assert 0.0 <= float(r[rate]) <= 1.0, r
print("stats CSV strict-parse OK:", len(data), "rows")
EOF
# Byte-stability: a second run emits identical bytes.
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format json "$tmp/a.store" \
  > "$tmp/stats2.json"
cmp "$tmp/stats.json" "$tmp/stats2.json"

# --- diff vs a sharded copy: axis alignment, all deltas exactly zero --
timeout "$SWEEP_TIMEOUT" "$BIN" diff --format json \
  "$tmp/a.store" "$tmp/shards" > "$tmp/diff_zero.json"
python3 - "$tmp/diff_zero.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["matched_cells"] == 8, d["matched_cells"]
assert d["significant_cells"] == 0
assert d["only_in_a"] == [] and d["only_in_b"] == []
for cell in d["cells"]:
    assert cell["success_delta"] == 0, cell
    assert cell["denial_delta"] == 0, cell
    assert cell["p50_shift"] == 0 and cell["p90_shift"] == 0, cell
    assert cell["significant"] is False, cell
for m in d["marginals"]:
    assert m["success_delta"] == 0 and m["mean_psnr_shift"] == 0, m
print("diff vs sharded copy: 8/8 cells aligned, all deltas zero")
EOF

# --- cross-family diff: disjoint defenses, shared attack axes ---------
timeout "$SWEEP_TIMEOUT" "$BIN" diff --format json \
  "$tmp/a.store" "$tmp/c.store" > "$tmp/diff_ab.json"
python3 - "$tmp/diff_ab.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["matched_cells"] == 0
assert len(d["only_in_a"]) == 8 and len(d["only_in_b"]) == 4
axes = {(m["axis"], m["value"]) for m in d["marginals"]}
# Defense values are disjoint; models/delays/scrubbers are shared.
assert not any(a == "defense" for a, _ in axes), axes
assert ("delay_s", "0") in axes and ("delay_s", "5") in axes, axes
print("cross-family diff: per-axis deltas over shared axes only")
EOF
timeout "$SWEEP_TIMEOUT" "$BIN" diff --format csv \
  "$tmp/a.store" "$tmp/c.store" > "$tmp/diff_ab.csv"
python3 - "$tmp/diff_ab.csv" <<'EOF'
import csv, sys
rows = list(csv.reader(open(sys.argv[1], newline=""), strict=True))
assert all(len(r) == len(rows[0]) for r in rows), "ragged CSV"
print("diff CSV strict-parse OK:", len(rows) - 1, "rows")
EOF
# Text format still renders the human tables.
timeout "$SWEEP_TIMEOUT" "$BIN" diff "$tmp/a.store" "$tmp/c.store" \
  | grep -q "cross-sweep diff (B minus A)"

# --- registry axes: sweep two non-legacy axes end-to-end --------------
# power_cycled x corrupt_fraction on top of a single legacy cell: the
# schema, store manifest, stats columns, and marginals must all carry
# the generic axes, and the report bytes must not depend on threads.
gaxes=(--defenses baseline --models resnet50_pt --delays 0 --scrubbers 0
       --axis power_cycled=0,1 --axis corrupt_fraction=0.5,1.0)
timeout "$SWEEP_TIMEOUT" "$BIN" --trials 2 --threads 2 --quiet \
  "${gaxes[@]}" --store "$tmp/g.store" > /dev/null
timeout "$SWEEP_TIMEOUT" "$BIN" --trials 2 --threads 1 --quiet \
  "${gaxes[@]}" --store "$tmp/g1.store" > /dev/null
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format json "$tmp/g.store" \
  > "$tmp/gstats.json"
python3 -m json.tool "$tmp/gstats.json" > /dev/null
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format json "$tmp/g1.store" \
  > "$tmp/gstats1.json"
cmp "$tmp/gstats.json" "$tmp/gstats1.json"
timeout "$SWEEP_TIMEOUT" "$BIN" stats --format csv "$tmp/g.store" \
  > "$tmp/gstats.csv"
python3 - "$tmp/gstats.csv" <<'EOF'
import csv, sys
rows = list(csv.reader(open(sys.argv[1], newline=""), strict=True))
header, data = rows[0], rows[1:]
assert "power_cycled" in header and "corrupt_fraction" in header, header
assert all(len(r) == len(header) for r in data), "ragged CSV"
assert sum(r[0] == "cell" for r in data) == 4, "expected 4 cell rows"
pc = header.index("power_cycled")
cf = header.index("corrupt_fraction")
cells = [(r[pc], r[cf]) for r in data if r[0] == "cell"]
assert sorted(cells) == [("0", "0.5"), ("0", "1"), ("1", "0.5"), ("1", "1")], cells
ax, val = header.index("axis"), header.index("value")
marg = {(r[ax], r[val]) for r in data if r[0] == "marginal"}
assert ("power_cycled", "0") in marg and ("power_cycled", "1") in marg, marg
assert ("corrupt_fraction", "0.5") in marg, marg
print("generic-axis stats CSV strict-parse OK:", len(data), "rows")
EOF
# Diffing the generic-axis store against itself pairs on all six axes.
timeout "$SWEEP_TIMEOUT" "$BIN" diff --format json \
  "$tmp/g.store" "$tmp/g1.store" > "$tmp/diff_g.json"
python3 - "$tmp/diff_g.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["matched_cells"] == 4 and d["significant_cells"] == 0, d
assert d["only_in_a"] == [] and d["only_in_b"] == []
assert all(c["success_delta"] == 0 for c in d["cells"])
print("generic-axis diff: 4/4 cells aligned, all deltas zero")
EOF

# --- golden store: readable, diffs to zero against a fresh twin -------
golden="$REPO/tests/data/golden_4axis.store"
timeout "$SWEEP_TIMEOUT" "$BIN" --trials 2 --threads 2 --quiet \
  --defenses baseline,zero_on_free --models resnet50_pt \
  --delays 0,5 --scrubbers 0 --store "$tmp/twin.store" > /dev/null
timeout "$SWEEP_TIMEOUT" "$BIN" diff --format json \
  "$golden" "$tmp/twin.store" > "$tmp/diff_golden.json"
python3 - "$tmp/diff_golden.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["matched_cells"] == 4, d["matched_cells"]
assert d["only_in_a"] == [] and d["only_in_b"] == []
assert d["significant_cells"] == 0
for cell in d["cells"]:
    assert cell["success_delta"] == 0 and cell["denial_delta"] == 0, cell
    assert cell["p50_shift"] == 0 and cell["p90_shift"] == 0, cell
for m in d["marginals"]:
    assert m["success_delta"] == 0 and m["mean_psnr_shift"] == 0, m
print("golden store vs fresh twin: 4/4 cells aligned, all deltas zero")
EOF

# --- --axis validation: unknown axes / bad values / repeats exit 2 ----
for bad in "nosuch=1" "power_cycled=yes" "delay_s=5x" "corrupt_fraction=1.5" \
           "power_cycled=1,1" "power_cycled" "=1" "firewall=on"; do
  rc=0
  "$BIN" --axis "$bad" --quiet > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "--axis $bad exited $rc, expected usage error 2" >&2
    exit 1
  fi
done

# --- grid-axis validation: non-finite / negative values exit usage (2)
for bad in nan inf -1 -0.5 1e999; do
  rc=0
  "$BIN" --delays "$bad" --quiet > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "--delays $bad exited $rc, expected usage error 2" >&2
    exit 1
  fi
  rc=0
  "$BIN" --scrubbers "$bad" --quiet > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "--scrubbers $bad exited $rc, expected usage error 2" >&2
    exit 1
  fi
done

echo "stats/diff structured output validates; axis-aligned diff is exact"
