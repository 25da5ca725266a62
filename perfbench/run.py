#!/usr/bin/env python3
"""End-to-end benchmark of the pin-access oracle, timed layer by layer.

One measured run:

    python3 perfbench/run.py --workload aes14_analyze --seed 0 --seconds 36 --trace 0

builds perfbench_driver from the sources (first use only), generates the
workload's inputs from the seed in a separate process, then runs one driver
process per iteration until the next iteration would overrun --seconds.
The last line of stdout is one JSON object: correct / attempted / failed and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
each a median over the run's iterations.

    python3 perfbench/run.py --all            # every workload, both modes
    python3 perfbench/run.py --steadiness 10 --workload huge_analyze

--all prints every metric with its unit plus the tracing overhead and exits
1 on any correctness mismatch. --steadiness runs N seeds and prints each
end-to-end metric's quartile spread beside a fixed-work host-noise probe.
See perfbench/README.md for the metric catalog and the workload rationale.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

WORKLOADS = ("aes14_analyze", "huge_analyze", "serve_edit")
DEFAULT_SEED = 0     # reproduces the presets' own seeds (aes14 42, huge 17)
HELD_OUT_SEED = 1009  # reserved for confirming a claimed gain
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit. Spans are named after the library call they
# time; see README.md for which end-to-end metric each one should move.
PER_LAYER = {
    "lefdef.ingest_s": "s",
    "lefdef.ingest_cpu_s": "s",
    "lefdef.def_mb": "MB",
    "lefdef.chunks": "count",
    "db.placement_s": "s",
    "pao.oracle_s": "s",
    "pao.oracle_cpu_s": "s",
    "pao.snapshot_s": "s",
    "pao.classes": "count",
    "pao.class_builds": "count",
    "pao.dp_runs": "count",
    "pao.pair_checks": "count",
    "pao.graph_jobs": "count",
    "pao.dirty_aps_s": "s",
    "pao.failed_pins_s": "s",
    "pao.failed_pins_cpu_s": "s",
    "pao.total_aps": "count",
    "pao.dirty_aps": "count",
    "pao.total_pins": "count",
    "pao.failed_pins": "count",
    "obs.report_s": "s",
    "serve.load_s": "s",
    "serve.edit_p50_ms": "ms",
    "serve.edit_p95_ms": "ms",
    "serve.edit_samples": "count",
    "serve.query_p50_ms": "ms",
    "serve.query_samples": "count",
    "serve.report_p50_ms": "ms",
    "serve.report_samples": "count",
    "serve.dirty_clusters": "count",
    "serve.visited_clusters": "count",
    "serve.dirty_ratio": "ratio",
    "serve.cache_hits": "count",
    "serve.cache_misses": "count",
    "serve.failed_requests": "count",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
    "host.probe_s": "s",
}

# The quality counts that must never move, per (workload, seed). A seed in
# this table is checked against it; every seed is also checked for
# identical counts across its iterations and zero dirty access points.
QUALITY_KEYS = ("pao.classes", "pao.total_aps", "pao.dirty_aps",
                "pao.total_pins", "pao.failed_pins")
GOLDEN_PATH = HERE / "golden.json"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(root)
    if not path.is_absolute():
        path = Path.cwd() / path
    return path / "perfbench"


def build():
    """Configures (once) and builds perfbench_driver; returns its path."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: repository sources not found next to "
                         f"{HERE.name}/ (need ../src)")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench_driver"


def child(args):
    """Runs the driver; returns the JSON object on its last stdout line."""
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args[1:3])} exited {proc.returncode}")
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 1])."""
    if not values:
        return 0.0
    return sorted(values)[math.ceil(q * len(values)) - 1]


def self_time(it, *names, cpu=False):
    spans = it.get("self", {})
    return sum(spans[n][1 if cpu else 0] for n in names if n in spans)


def per_layer(iters, workload, probe_s):
    """Medians over the iterations of each per-layer quantity."""
    def med(fn):
        return median([fn(it) for it in iters])

    # serve_edit's batch-layer figures come from its equivalence check
    # (first iteration only): the same layers, on the same design.
    layer_iters = [it for it in iters if "pao.oracle" in it.get("self", {})]

    def lmed(fn):
        return median([fn(it) for it in layer_iters])

    def count(key):
        return lmed(lambda it: it["counts"].get(key, 0))

    m = {
        "lefdef.ingest_s": lmed(lambda it: self_time(
            it, "lefdef.parse_lef", "lefdef.parse_def")),
        "lefdef.ingest_cpu_s": lmed(lambda it: self_time(
            it, "lefdef.parse_lef", "lefdef.parse_def", cpu=True)),
        "lefdef.def_mb": count("lefdef.def_mb"),
        "lefdef.chunks": count("lefdef.chunks"),
        "db.placement_s": lmed(lambda it: self_time(it, "db.check_placement")),
        "pao.oracle_s": lmed(lambda it: self_time(it, "pao.oracle")),
        "pao.oracle_cpu_s": lmed(lambda it: self_time(it, "pao.oracle",
                                                      cpu=True)),
        "pao.snapshot_s": lmed(lambda it: self_time(it, "pao.snapshot")),
        "pao.dirty_aps_s": lmed(lambda it: self_time(it, "pao.dirty_aps")),
        "pao.failed_pins_s": lmed(lambda it: self_time(it, "pao.failed_pins")),
        "pao.failed_pins_cpu_s": lmed(lambda it: self_time(
            it, "pao.failed_pins", cpu=True)),
        "obs.report_s": lmed(lambda it: self_time(it, "obs.report")),
    }
    for key in ("pao.classes", "pao.class_builds", "pao.dp_runs",
                "pao.pair_checks", "pao.graph_jobs", "pao.total_aps",
                "pao.dirty_aps", "pao.total_pins", "pao.failed_pins"):
        m[key] = count(key)

    lat = {k: [v for it in iters for v in it["latency_ms"].get(k, [])]
           for k in ("edit", "query", "report")}
    dirty = sum(it["counts"].get("serve.dirty_clusters", 0) for it in iters)
    visited = sum(it["counts"].get("serve.visited_clusters", 0)
                  for it in iters)
    m.update({
        "serve.load_s": med(lambda it: self_time(it, "serve.load")),
        "serve.edit_p50_ms": percentile(lat["edit"], 0.50),
        "serve.edit_p95_ms": percentile(lat["edit"], 0.95),
        "serve.edit_samples": len(lat["edit"]),
        "serve.query_p50_ms": percentile(lat["query"], 0.50),
        "serve.query_samples": len(lat["query"]),
        "serve.report_p50_ms": percentile(lat["report"], 0.50),
        "serve.report_samples": len(lat["report"]),
        "serve.dirty_clusters": med(
            lambda it: it["counts"].get("serve.dirty_clusters", 0)),
        "serve.visited_clusters": med(
            lambda it: it["counts"].get("serve.visited_clusters", 0)),
        "serve.dirty_ratio": dirty / visited if visited else 0.0,
        "serve.cache_hits": med(
            lambda it: it["counts"].get("serve.cache_hits", 0)),
        "serve.cache_misses": med(
            lambda it: it["counts"].get("serve.cache_misses", 0)),
        "serve.failed_requests": sum(
            it["counts"].get("serve.failed_requests", 0) for it in iters),
    })
    root = "serve" if workload == "serve_edit" else "analyze"
    m.update({
        "trace.wall_s": med(lambda it: it["wall_s"]),
        "trace.coverage": med(lambda it: 1.0 - self_time(it, root) /
                              it["wall_s"]),
        "trace.unattributed_s": med(lambda it: self_time(it, root)),
        "host.probe_s": probe_s,
    })
    return m


def quality(it):
    return {k: it["counts"].get(k) for k in QUALITY_KEYS}


def check_quality(workload, seed, iters):
    """Returns the number of iterations whose quality counts are wrong."""
    golden = {}
    if GOLDEN_PATH.is_file():
        golden = json.loads(GOLDEN_PATH.read_text()).get(workload, {})
    expected = golden.get(str(seed)) or (quality(iters[0]) if iters else None)
    bad = 0
    for it in iters:
        q = quality(it)
        if q != expected or q["pao.dirty_aps"] != 0:
            log(f"perfbench: {workload} seed {seed}: quality {q} != "
                f"{expected}")
            bad += 1
    return bad


def measure(driver, workload, seed, seconds, trace):
    """One benchmark run. Returns (result dict, raw iterations)."""
    work = build_dir() / "work" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces = build_dir() / "traces"
    if trace:
        traces.mkdir(exist_ok=True)
    try:
        subprocess.run([str(driver), "gen", workload, str(seed), str(work)],
                       check=True, timeout=CHILD_TIMEOUT_S)
        probe_s = child([str(driver), "probe"])["probe_s"] if trace else 0.0
        iters, errors = [], 0
        start = time.monotonic()
        longest = 0.0
        while True:
            t0 = time.monotonic()
            args = [str(driver), "run", workload, str(work), str(int(trace)),
                    "1" if not iters and workload == "serve_edit" else "0"]
            if trace:
                args.append(str(traces / f"{workload}.trace.json"))
            try:
                it = child(args)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
                log(f"perfbench: {workload} iteration failed: {e}")
                errors += 1
            else:
                if it["error"]:
                    log(f"perfbench: {workload}: {it['error']}")
                iters.append(it)
            longest = max(longest, time.monotonic() - t0)
            if errors > 2 or time.monotonic() - start + longest > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(it["attempted"] for it in iters) + errors
    failed = sum(it["failed"] for it in iters) + errors
    if workload == "serve_edit":
        checked = [it for it in iters if "equal" in it["check"]]
        correct = bool(checked) and all(it["check"]["equal"] for it in checked)
    else:
        bad = check_quality(workload, seed, iters)
        failed += bad
        correct = bad == 0
    correct = correct and failed == 0 and bool(iters)

    if trace:
        values = per_layer(iters, workload, probe_s) if iters else {}
        units = PER_LAYER
    else:
        values = {k: median([it[k] for it in iters]) for k in END_TO_END}
        units = END_TO_END
    metrics = {k: {"value": values.get(k, 0.0), "unit": u}
               for k, u in units.items()}
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}, iters


def write_golden(driver, seeds):
    """Records the quality counts of one iteration per seed in golden.json."""
    golden = {}
    for workload in ("aes14_analyze", "huge_analyze"):
        for seed in seeds:
            _, iters = measure(driver, workload, seed, 0, False)
            golden.setdefault(workload, {})[str(seed)] = quality(iters[0])
            log(f"{workload} seed {seed}: {golden[workload][str(seed)]}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def spread(values):
    """Quartile distance over the median, as statistics.quantiles gives it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def run_all(driver, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        walls = {}
        for trace in (0, 1):
            res, _ = measure(driver, workload, seed, seconds, bool(trace))
            ok = ok and res["correct"]
            walls[trace] = (res["metrics"]["wall_s"]["value"] if not trace
                            else res["metrics"]["trace.wall_s"]["value"])
            print(f"{workload} trace={trace} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:24s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'trace.overhead_s':24s} {walls[1] - walls[0]:14.6g} s")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def run_steadiness(driver, workload, runs, seconds):
    table = {k: [] for k in END_TO_END}
    probes = []
    ok = True
    for seed in range(1, runs + 1):
        probes.append(child([str(driver), "probe"])["probe_s"])
        res, iters = measure(driver, workload, seed, seconds, False)
        ok = ok and res["correct"]
        for k in END_TO_END:
            table[k].append(res["metrics"][k]["value"])
        log(f"seed {seed}: iterations={len(iters)} " + " ".join(
            f"{k}={table[k][-1]:.4f}" for k in END_TO_END))
    print(f"{workload}: {runs} runs of {seconds} s, correct={ok}")
    for k, values in table.items():
        print(f"  {k:12s} median {statistics.median(values):10.4f}  "
              f"spread {spread(values):.4f}")
    print(f"  {'host.probe_s':12s} median {statistics.median(probes):10.4f}  "
          f"spread {spread(probes):.4f}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--steadiness", type=int, metavar="RUNS")
    ap.add_argument("--write-golden", type=int, metavar="SEEDS",
                    help="record seeds 0..SEEDS-1 and the held-out seed")
    args = ap.parse_args()
    if args.write_golden:
        return write_golden(build(), [*range(args.write_golden),
                                      HELD_OUT_SEED])
    if not args.all and args.workload is None:
        ap.error("--workload is required unless --all is given")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    driver = build()
    if args.all:
        return run_all(driver, args.seed, args.seconds)
    if args.steadiness:
        return run_steadiness(driver, args.workload, args.steadiness,
                              args.seconds)
    res, _ = measure(driver, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(res))
    return 0  # a mismatch is reported through "correct"


if __name__ == "__main__":
    sys.exit(main())
