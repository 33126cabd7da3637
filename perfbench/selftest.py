#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at the tiny size.

Run from the root of a checkout (after one normal run has built the
binaries, or let the first test build them):

    python3 perfbench/selftest.py

Checks that
  * every workload, traced and untraced, emits exactly the metrics
    BENCHMARK.json names, each with its unit, and passes its own checks
    against freshly pinned digests;
  * a wrong pinned digest is reported as a failure, never passed;
  * a missing binary fails loudly: nonzero exit and no result line;
  * one seed gives byte-identical synthetic stores and identical sweep
    arguments, and another seed gives different ones.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import run as bench  # noqa: E402

SPEC = json.load(open("BENCHMARK.json"))
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
FAILURES = []


def check(ok, what):
    print(("ok     " if ok else "FAILED ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


# Runs run.py's main() with its digests file swapped for the test's own,
# so pinning and corrupting digests never touches perfbench/digests.json.
LAUNCH = ("import sys; sys.dont_write_bytecode = True; sys.path.insert(0, %r); "
          "import run; run.DIGESTS = sys.argv.pop(1); sys.exit(run.main())" % BENCH_DIR)


def run_bench(digests, *extra, **popen):
    argv = [sys.executable, "-c", LAUNCH, digests, "--tiny", "--seconds", "1"] + list(extra)
    p = subprocess.run(argv, capture_output=True, text=True, **popen)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p, result


def emits_every_metric(result, trace):
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    metrics = result["metrics"]
    return (set(metrics) == {m["name"] for m in wanted}
            and all(metrics[m["name"]]["unit"] == m["unit"]
                    and isinstance(metrics[m["name"]]["value"], float)
                    for m in wanted))


def test_workloads(digests):
    for workload in sorted(bench.WORKLOADS):
        p, _ = run_bench(digests, "--workload", workload, "--pin")
        check(p.returncode == 0, "%s: pins tiny digests" % workload)
        for trace in (0, 1):
            p, result = run_bench(digests, "--workload", workload, "--trace", str(trace))
            name = "%s --trace %d" % (workload, trace)
            check(p.returncode == 0 and result is not None, name + ": exits 0 with a result")
            if result is None:
                continue
            check(emits_every_metric(result, trace),
                  name + ": emits every BENCHMARK.json metric with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  name + ": passes its output checks")


def test_wrong_digest(digests):
    pinned = json.load(open(digests))
    for workload, name in (("sweep_inference", "report"),
                           ("sweep_decay", "report"),
                           ("store_analytics", "store")):
        wrong = json.loads(json.dumps(pinned))
        wrong[workload]["tiny"][name] = "0" * 64
        path = digests + ".wrong"
        with open(path, "w") as f:
            json.dump(wrong, f)
        p, result = run_bench(path, "--workload", workload)
        check(result is not None and not result["correct"] and result["failed"] >= 1,
              "%s: a wrong pinned %s digest is reported as a failure" % (workload, name))


def test_missing_binary(scratch):
    """A directory with BENCHMARK.json but no source tree and no build."""
    shutil.copy("BENCHMARK.json", scratch)
    p, result = run_bench(os.path.join(scratch, "digests.json"),
                          "--workload", "sweep_inference", cwd=scratch,
                          env=dict(os.environ, CARGO_TARGET_DIR="build"))
    check(p.returncode != 0 and result is None and "missing binary" in p.stderr,
          "a missing binary fails loudly without a result line")


def test_seeded_generators(scratch):
    driver = os.path.join(BUILD_DIR, "perfbench_driver")
    digests = []
    for seed in (7, 7, 8):
        path = os.path.join(scratch, "gen.store")
        subprocess.run([driver, "gen-store", "--seed", str(seed), "--out", path,
                        "--trials-per-cell", "2"], check=True, capture_output=True)
        with open(path, "rb") as f:
            digests.append(hashlib.sha256(f.read()).hexdigest())
    check(digests[0] == digests[1], "one seed gives a byte-identical synthetic store")
    check(digests[0] != digests[2], "another seed gives a different synthetic store")
    wl = bench.WORKLOADS["sweep_decay"]
    check(bench.grid_args(wl, 7, 200) == bench.grid_args(wl, 7, 200)
          and bench.grid_args(wl, 7, 200) != bench.grid_args(wl, 8, 200),
          "sweep arguments are a function of the seed alone")

    # The synthetic store was not written by campaign_sweep, so the grid
    # rebuilt from its manifest cannot match its fingerprint.
    p = subprocess.run([driver, "setup", "--grid-from", path, "--store",
                        os.path.join(scratch, "setup.store")],
                       capture_output=True, text=True)
    check(p.returncode == 1 and "does not match" in p.stderr,
          "set-up refuses a store whose grid is not campaign_sweep's")


def main():
    os.makedirs(BUILD_DIR, exist_ok=True)
    scratch = os.path.abspath(tempfile.mkdtemp(prefix="selftest-", dir=BUILD_DIR))
    try:
        digests = os.path.join(scratch, "digests.json")
        test_workloads(digests)
        test_wrong_digest(digests)
        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        test_missing_binary(bare)
        test_seeded_generators(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
