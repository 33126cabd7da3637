#!/usr/bin/env python3
"""Whole-process campaign benchmark for the msa simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_inference --seed 1 --seconds 20 --trace 0

It builds `campaign_sweep` and the benchmark's own `perfbench_driver`
from source into `.bench_build/` (or $CARGO_TARGET_DIR) on first use,
runs one workload (see perfbench/README.md), checks every output, prints
each metric by name with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--trace 0` times whole `campaign_sweep` processes as a black box and
reports the end-to-end metrics of BENCHMARK.json; `--trace 1` drives
perfbench_driver's in-process replay and reports the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
# Whole-grid gate threshold: two samples of one population never differ
# by half a success rate in a cell, so every gate these workloads run
# must come back clean (exit 0).
GATE_MIN_EFFECT = "0.5"

WORKLOADS = {
    # The default 24-cell grid on one thread: victim inference dominates
    # every trial and remanence never runs.
    "sweep_inference": {
        "kind": "sweep",
        "grid": [],
        "cells": 24,
        "trials": 200,
        "threads": 1,
        "replay_trials": 50,
        "stress": [("campaign.launch_share", 0.80, ">=")],
    },
    # Power-cycled boards, so DRAM decay dominates; several workers
    # share the runner pool and one store.
    "sweep_decay": {
        "kind": "sweep",
        "grid": ["--axis", "power_cycled=1",
                 "--defenses", "baseline,zero_on_alloc",
                 "--delays", "5,60", "--scrubbers", "0"],
        "cells": 8,
        "trials": 200,
        "threads": "min(4,nproc)",
        "replay_trials": 125,
        "stress": [("campaign.remanence_share", 0.60, ">=")],
    },
    # No simulation: the persist read path and campaign analysis over a
    # synthetic 10^4-cell x 100-trial store.
    "store_analytics": {
        "kind": "store",
        "queries": 16,
    },
}

# --tiny: the same code paths at a size the self-tests can afford.
TINY = {"trials": 2, "replay_trials": 2, "trials_per_cell": 2, "queries": 4}


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Proc:
    """One finished child process: exit code, wall seconds, peak RSS, output."""

    def __init__(self, argv):
        # In-memory files: on some filesystems creating or truncating a
        # real file costs more than the short processes being timed.
        out_fd = os.memfd_create("stdout")
        err_fd = os.memfd_create("stderr")
        try:
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=out_fd, stderr=err_fd)
            _, status, usage = os.wait4(child.pid, 0)
            self.wall_s = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
            self.out = read_fd(out_fd)
            self.err = read_fd(err_fd).decode(errors="replace")
        finally:
            os.close(out_fd)
            os.close(err_fd)
        self.rc = child.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0

    def json(self):
        return json.loads(self.out.decode())


def read_fd(fd):
    os.lseek(fd, 0, os.SEEK_SET)
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class Run:
    """Bookkeeping for one benchmark run: operations, failures, samples."""

    def __init__(self, args, paths, digests):
        self.args = args
        self.paths = paths
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.rss_mb = 0.0  # peak over campaign_sweep processes only
        self.observed = {}  # digest name -> digest, for --pin

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("FAILED: " + what)
        return ok

    def proc(self, argv):
        p = Proc(argv)
        if argv[0] == self.paths["campaign_sweep"]:
            self.rss_mb = max(self.rss_mb, p.rss_mb)
        if p.rc != 0:
            log("exit %d from %s\n%s" % (p.rc, " ".join(argv), p.err[-2000:]))
        return p

    def pinned_ok(self, name, digest):
        """True unless a pinned digest exists for this run and differs."""
        self.observed.setdefault(name, digest)
        if self.args.seed != DEFAULT_SEED:
            return True
        pinned = self.digests.get(self.args.workload, {}).get(self.size_key(), {})
        if name not in pinned:
            return True
        return pinned[name] == digest

    def size_key(self):
        return "tiny" if self.args.tiny else "full"


def parse_csv(text):
    lines = text.decode().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def stats_cells(text):
    """Cell rows of a `stats --format csv` output."""
    header, rows = parse_csv(text)
    if header[:2] != ["section", "index"]:
        raise ValueError("not a stats CSV")
    return [r for r in rows if r["section"] == "cell"]


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, int(-(-p * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


# ---- build ---------------------------------------------------------------

def build(paths):
    """Builds both binaries from the checkout's source tree; without one,
    the binaries already in the build directory must do."""
    root = paths["root"]
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("no msa source tree at %s: nothing to build" % root)
    else:
        build_dir = paths["build"]
        cmd_out = sys.stderr
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=cmd_out, stderr=cmd_out) != 0:
                raise BenchError("cmake configure failed")
        if subprocess.call(["cmake", "--build", build_dir, "-j", str(min(4, nproc())),
                            "--target", "campaign_sweep", "perfbench_driver"],
                           stdout=cmd_out, stderr=cmd_out) != 0:
            raise BenchError("build failed")
    for binary in (paths["campaign_sweep"], paths["driver"]):
        if not os.access(binary, os.X_OK):
            raise BenchError("missing binary: %s" % binary)


# ---- sweep workloads ------------------------------------------------------

def sweep_threads(wl):
    return min(4, nproc()) if wl["threads"] == "min(4,nproc)" else wl["threads"]


def grid_args(wl, seed, trials):
    """The sweep's grid flags; the seed reaches the program only as the
    victim-input axis value."""
    return wl["grid"] + ["--axis", "image_seed=%d" % (seed % (1 << 53)),
                         "--trials", str(trials)]


def check_report(run, wl, trials, csv, first_csv):
    header, rows = parse_csv(csv)
    ok = (len(rows) == wl["cells"]
          and all(int(r["trials"]) == trials for r in rows)
          and (first_csv is None or csv == first_csv))
    return run.pinned_ok("report", sha256_bytes(csv)) and ok


def run_sweep(run, wl, seconds):
    args, paths = run.args, run.paths
    trials = TINY["trials"] if args.tiny else wl["trials"]
    threads = 1 if args.pin else sweep_threads(wl)
    grid = grid_args(wl, args.seed, trials)
    work = paths["work"]
    cs = paths["campaign_sweep"]

    setup = []

    def set_up(sweep_store):
        p = run.proc([paths["driver"], "setup", "--grid-from", sweep_store,
                      "--store", os.path.join(work, "setup.store")])
        if run.op(p.rc == 0, "setup"):
            setup.append(p.json()["setup_s"])

    # Sweeps back to back; after each one, three fresh-process set-ups
    # and analytics rounds over the two newest stores until those have
    # had a quarter of the sweep time, so every kind of sample spans the
    # whole measured window (this host's speed drifts over seconds).
    start = time.perf_counter()
    walls, rates, stores, first_csv = [], [], [], None
    ana = None
    attempts = 0
    while attempts < 3 or (time.perf_counter() - start < seconds and not args.pin):
        store = os.path.join(work, "sweep-%d.store" % (attempts % 2))
        attempts += 1
        remove_store(store)
        p = run.proc([cs] + grid + ["--threads", str(threads), "--store", store,
                                    "--quiet"])
        # A wrong output is counted as failed but keeps its timing; a
        # process that did not exit 0 gives no sample.
        run.op(p.rc == 0 and check_report(run, wl, trials, p.out, first_csv),
               "sweep report (seed %d)" % args.seed)
        if p.rc != 0:
            continue
        first_csv = first_csv or p.out
        walls.append(p.wall_s)
        rates.append(wl["cells"] * trials / p.wall_s)
        stores.append(store)
        for _ in range(3):
            set_up(store)
        if len(stores) < 2:
            continue
        if ana is None:
            ana = Analytics(run, sweep_queries(first_csv, args.seed), trials,
                            wl["cells"] * trials)
        while ana.busy_s < 0.25 * sum(walls) or (args.pin and ana.rounds < 3):
            ana.round(stores[-1], stores[-2])
    if ana is None:
        raise BenchError("fewer than two sweeps succeeded")
    run.analytics = ana.result()
    return {"trials_per_s": statistics.median(rates), "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup)}, {"samples": len(walls), "threads": threads}


def sweep_queries(csv, seed):
    """Eight seed-drawn point queries over the sweep's own cells, as
    --cells clauses on every axis column of the report."""
    header, rows = parse_csv(csv)
    axes = header[1:header.index("trials")]
    rng = random.Random(seed)
    return [[a + "=" + row[a] for a in axes]
            for row in (rng.choice(rows) for _ in range(8))]


def remove_store(path):
    directory, name = os.path.split(path)
    for entry in os.listdir(directory):
        if entry == name or entry.startswith(name + "."):
            os.remove(os.path.join(directory, entry))


class Analytics:
    """Rounds of the store-reader side through the CLI: every point query
    (`stats --cells`), one whole-store `stats`, and one
    `diff --exit-on-significant`, each output checked."""

    def __init__(self, run, queries, trials_per_cell, total_trials):
        self.run = run
        self.queries = queries
        self.trials_per_cell = trials_per_cell
        self.total_trials = total_trials
        self.query_ms, self.stats_s, self.gate_s, self.round_s = [], [], [], []
        self.seen = {}
        self.busy_s = 0.0
        self.rounds = 0

    def round(self, store_a, store_b):
        run, cs = self.run, self.run.paths["campaign_sweep"]
        round_start = time.perf_counter()
        outputs = []
        for q in self.queries:
            argv = [cs, "stats", "--format", "csv"]
            for clause in q:
                argv += ["--cells", clause]
            p = run.proc(argv + [store_a])
            if p.rc == 0:
                self.query_ms.append(p.wall_s * 1e3)
                cells = stats_cells(p.out)
            run.op(p.rc == 0 and len(cells) == 1
                   and int(cells[0]["trials"]) == self.trials_per_cell,
                   "point query " + ",".join(q))
            outputs.append(p.out)
        joined = b"\0".join(outputs)
        run.op(self.same_as_before("queries", joined)
               and run.pinned_ok("queries", sha256_bytes(joined)),
               "point query outputs")

        p = run.proc([cs, "stats", "--format", "csv", store_a])
        if p.rc == 0:
            self.stats_s.append(p.wall_s)
        run.op(p.rc == 0
               and sum(int(c["trials"]) for c in stats_cells(p.out)) == self.total_trials
               and self.same_as_before("stats", p.out)
               and run.pinned_ok("stats", sha256_bytes(p.out)),
               "whole-store stats")

        p = run.proc([cs, "diff", "--format", "csv", "--exit-on-significant",
                      "--min-effect", GATE_MIN_EFFECT, store_a, store_b])
        if p.rc == 0:
            self.gate_s.append(p.wall_s)
        run.op(p.rc == 0 and self.same_as_before("diff", p.out)
               and run.pinned_ok("diff", sha256_bytes(p.out)),
               "diff --exit-on-significant (exit %d)" % p.rc)
        self.round_s.append(time.perf_counter() - round_start)
        self.busy_s += self.round_s[-1]
        self.rounds += 1

    def same_as_before(self, key, value):
        """Repeated runs of one command must print the same bytes."""
        return self.seen.setdefault(key, value) == value

    def result(self):
        if not (self.query_ms and self.stats_s and self.gate_s):
            raise BenchError("no analytics operation succeeded")
        return {
            "cell_query_p50_ms": percentile(self.query_ms, 50),
            "cell_query_p90_ms": percentile(self.query_ms, 90),
            "cell_query_p95_ms": percentile(self.query_ms, 95),
            "full_stats_s": statistics.median(self.stats_s),
            "gate_s": statistics.median(self.gate_s),
            "round_s": statistics.median(self.round_s),
            "query_samples": len(self.query_ms),
            "stats_samples": len(self.stats_s),
        }


# ---- store_analytics ------------------------------------------------------

def gen_store(run, seed, path):
    argv = [run.paths["driver"], "gen-store", "--seed", str(seed), "--out", path]
    if run.args.tiny:
        argv += ["--trials-per-cell", str(TINY["trials_per_cell"])]
    p = run.proc(argv)
    if not run.op(p.rc == 0, "gen-store seed %d" % seed):
        raise BenchError("synthetic store generation failed")
    return p.json()


def compact_copy(run, flat, path):
    remove_store(path)
    shutil.copyfile(flat, path)
    p = run.proc([run.paths["campaign_sweep"], "compact", path])
    run.op(p.rc == 0, "compact " + path)
    return p.wall_s


def prepare_stores(run):
    work = run.paths["work"]
    flat_a = os.path.join(work, "a.flat")
    flat_b = os.path.join(work, "b.flat")
    info = gen_store(run, run.args.seed, flat_a)
    gen_store(run, run.args.seed + 1, flat_b)
    run.op(run.pinned_ok("store", sha256_file(flat_a)), "synthetic store bytes")
    return info, flat_a, flat_b


def run_store(run, wl, seconds):
    work = run.paths["work"]
    info, flat_a, flat_b = prepare_stores(run)
    store_a = os.path.join(work, "a.store")
    store_b = os.path.join(work, "b.store")
    compact_copy(run, flat_a, store_a)
    compact_copy(run, flat_b, store_b)

    rng = random.Random(run.args.seed)
    count = TINY["queries"] if run.args.tiny else wl["queries"]
    queries = [[axis["name"] + "=" + rng.choice(axis["labels"])
                for axis in info["axes"]] for _ in range(count)]
    trials = int(info["trials"])
    ana = Analytics(run, queries, trials // int(info["cells"]), trials)
    # Set-up time is compacting a freshly written store; one compaction
    # of a scratch copy per round spreads its samples over the window.
    setup = []
    deadline = time.perf_counter() + seconds
    while ana.rounds < 3 or (time.perf_counter() < deadline and not run.args.pin):
        ana.round(store_a, store_b)
        setup.append(compact_copy(run, flat_a, os.path.join(work, "c.store")))
    run.analytics = ana.result()
    a = run.analytics
    return {"trials_per_s": trials / a["full_stats_s"], "wall_s": a["round_s"],
            "setup_s": statistics.median(setup)}, {"samples": a["stats_samples"], "threads": 1}


# ---- traced runs ----------------------------------------------------------

def registry_metrics(p, threads):
    """Runner-pool numbers from a `campaign_sweep metrics --format json` run."""
    rows = {m["metric"]: m for m in p.json()["metrics"]}
    wait = rows["campaign.queue_wait_ns"]
    cell = rows["campaign.cell_ns"]
    return {
        "campaign.queue_wait_us_p50": wait["p50"] / 1e3,
        "campaign.queue_wait_us_p99": wait["p99"] / 1e3,
        "campaign.cell_ms_max": cell["max"] / 1e6,
        "campaign.parallel_efficiency": cell["sum"] / 1e9 / (threads * p.wall_s),
    }


def cli_exec_ms(run):
    walls = []
    for _ in range(21):
        p = run.proc([run.paths["campaign_sweep"], "axes"])
        if run.op(p.rc == 0 and b"image_seed" in p.out, "campaign_sweep axes"):
            walls.append(p.wall_s * 1e3)
    return statistics.median(walls) if walls else 0.0


def driver_json(run, argv, what, count_key):
    """Runs a driver mode whose JSON counts its own checked items and
    mismatches; folds both into the run's totals."""
    p = run.proc([run.paths["driver"]] + argv)
    if p.rc not in (0, 1) or not p.out.strip():
        run.op(False, what)
        raise BenchError("%s failed" % what)
    result = p.json()
    checked = int(result[count_key])
    bad = int(result["mismatches"])
    run.attempted += checked
    run.failed += bad
    if bad:
        log("FAILED: %s: %d mismatch(es)" % (what, bad))
    return result


def trace_sweep(run, wl):
    args, paths, work = run.args, run.paths, run.paths["work"]
    trials = TINY["trials"] if args.tiny else wl["trials"]
    replay_trials = TINY["replay_trials"] if args.tiny else wl["replay_trials"]
    threads = sweep_threads(wl)
    grid = grid_args(wl, args.seed, trials)

    store = os.path.join(work, "metrics.store")
    remove_store(store)
    p = run.proc([paths["campaign_sweep"], "metrics", "--format", "json"] + grid +
                 ["--threads", str(threads), "--store", store, "--quiet"])
    if not run.op(p.rc == 0, "campaign_sweep metrics"):
        raise BenchError("campaign_sweep metrics failed")
    metrics = registry_metrics(p, threads)

    metrics.update(driver_json(run, [
        "replay", "--grid-from", store, "--trials-per-cell", str(replay_trials),
        "--store", os.path.join(work, "replay.store")], "traced replay", "trials"))
    metrics.update(driver_json(run, [
        "query", "--store", store, "--against", store, "--flat", store,
        "--scratch", os.path.join(work, "compact.store"), "--seed", str(args.seed),
        "--queries", "20", "--min-effect", GATE_MIN_EFFECT], "store queries", "queries"))
    metrics["cli.exec_ms"] = cli_exec_ms(run)
    return metrics, {"threads": threads, "replay_trials_per_cell": replay_trials}


def trace_store(run, wl):
    work = run.paths["work"]
    info, flat_a, flat_b = prepare_stores(run)
    store_a = os.path.join(work, "a.store")
    store_b = os.path.join(work, "b.store")
    compact_copy(run, flat_a, store_a)
    compact_copy(run, flat_b, store_b)
    metrics = {k: v for k, v in info.items() if k.startswith("persist.")}
    metrics.update(driver_json(run, [
        "query", "--store", store_a, "--against", store_b, "--flat", flat_a,
        "--scratch", os.path.join(work, "compact.store"), "--seed", str(run.args.seed),
        "--queries", "20", "--min-effect", GATE_MIN_EFFECT], "store queries", "queries"))
    metrics["cli.exec_ms"] = cli_exec_ms(run)
    return metrics, {"threads": 1}


# ---- main -----------------------------------------------------------------

def load_json(path, default=None):
    if default is not None and not os.path.exists(path):
        return default
    with open(path) as f:
        return json.load(f)


def descriptor(run, threads):
    p = run.proc([run.paths["driver"], "machine"])
    d = p.json() if p.rc == 0 else {}
    d.update({"workload": run.args.workload, "seed": run.args.seed,
              "threads": threads, "trace": run.args.trace,
              "seconds": run.args.seconds, "size": run.size_key()})
    return d


def resolve_paths(root):
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return {
        "root": root,
        "build": build_dir,
        "campaign_sweep": os.path.join(build_dir, "msa", "examples", "campaign_sweep"),
        "driver": os.path.join(build_dir, "perfbench_driver"),
        "work": os.path.join(build_dir, "work", "run-%d" % os.getpid()),
    }


def main():
    spec = load_json(os.path.join(os.getcwd(), "BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (self-tests); checks 'tiny' digests")
    ap.add_argument("--pin", action="store_true",
                    help="record this run's output digests (default seed "
                         "only; sweeps on one thread) into " + DIGESTS)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.pin and args.seed != DEFAULT_SEED:
        ap.error("--pin records digests at the default seed %d" % DEFAULT_SEED)

    try:
        paths = resolve_paths(os.getcwd())
        build(paths)
        if os.path.exists(paths["work"]):
            shutil.rmtree(paths["work"])
        os.makedirs(paths["work"])
        run = Run(args, paths, load_json(DIGESTS, default={}))
        try:
            result = execute(run, spec)
        finally:
            shutil.rmtree(paths["work"], ignore_errors=True)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1

    if args.pin:
        digests = load_json(DIGESTS, default={})
        digests.setdefault(args.workload, {})[run.size_key()] = run.observed
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
        log("pinned %s digests of %s into %s" % (run.size_key(), args.workload,
                                                  DIGESTS))
    print(json.dumps(result))
    return 0


def execute(run, spec):
    args = run.args
    wl = WORKLOADS[args.workload]
    if args.trace == 0:
        body = run_sweep if wl["kind"] == "sweep" else run_store
        values, notes = body(run, wl, args.seconds)
        a = run.analytics
        values.update(a)
        values["peak_rss_mb"] = run.rss_mb
        wanted = spec["end_to_end"]
        notes["query_samples"] = a["query_samples"]
    else:
        body = trace_sweep if wl["kind"] == "sweep" else trace_store
        values, notes = body(run, wl)
        wanted = spec["per_layer"]
    d = descriptor(run, notes["threads"])
    d.update(notes)

    metrics = {}
    print("# perfbench %s" % json.dumps(d, sort_keys=True))
    for m in wanted:
        # A layer this workload never calls reads 0 (for example
        # dram.remanence_us on sweep_inference).
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-32s %16.6f %s" % (m["name"], value, m["unit"]))
    if args.trace == 0:
        # Reported, not bounded: the tail of millisecond processes moves
        # with the host far more than the median does.
        for name in ("cell_query_p50_ms", "cell_query_p90_ms", "cell_query_p95_ms"):
            print("%-32s %16.6f ms  (of %d samples, unbounded)" % (
                name, values[name], values["query_samples"]))
    attempted = max(run.attempted, 1)
    print("%-32s %16.6f %s  (%d failed of %d attempted)" % (
        "error_rate", run.failed / attempted, "ratio", run.failed, attempted))
    if args.trace == 1 and wl["kind"] == "sweep":
        print("%-32s %16.6f us over %d replayed trials" % (
            "campaign.trial_us_mean", values["campaign.trial_us_mean"],
            values["trials"]))
        # Does the workload stress the layer it was chosen for, and do
        # the timed calls explain the trial?
        for name, limit, sense in wl["stress"] + [
                ("campaign.unattributed_share", 0.05, "<=")]:
            value = values[name]
            met = value >= limit if sense == ">=" else value <= limit
            print("check %-26s %16.6f %s %.2f: %s" % (
                name, value, sense, limit, "met" if met else "NOT MET"))
    return {"correct": run.failed == 0, "attempted": attempted,
            "failed": run.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
