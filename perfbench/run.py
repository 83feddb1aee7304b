"""Host-cost benchmark of the FLock simulator.

Times how long the simulator takes on the host to regenerate the
paper's kind of data points, on three workloads that load different
model layers (see README.md).  Simulated results are the correctness
check: every point's outputs must match the stored reference for its
seed, pass the end-of-run audit, and repeat exactly across the runs.

    python3 perfbench/run.py --workload flock_shared_qp --seed 1 \\
        --seconds 30 --trace 0

Each repetition is a fresh ``python3 perfbench/workloads.py`` process
with every ``REPRO_*`` variable removed and ``PYTHONHASHSEED`` pinned.
With ``--trace 0`` repetitions run until ``--seconds`` have passed (at
least three) and the end-to-end metrics are their medians.  With
``--trace 1`` one untraced and one traced repetition give the per-layer
metrics.  The last stdout line is the JSON result; the command exits
nonzero when any check fails.

    python3 perfbench/run.py --record-reference --seeds 0-31

re-records ``reference.json`` after an intended change to the model.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "workloads.py")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import REFERENCE_FILE, WORKLOADS  # noqa: E402

#: SimProfile buckets reported per layer (``<c>.self_s``, ``<c>.events``).
COMPONENTS = ("flock", "credits", "verbs", "cq", "rnic", "pcie", "fabric",
              "switch", "kernel", "app")

MIN_REPEATS = 3
#: A run ends within 180 s: no repetition starts after START_LIMIT_S
#: would be passed by its predecessor's duration, and a repetition still
#: running at RUN_LIMIT_S is killed and fails the run.
START_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0
#: Share of a traced run's simulate time the per-component self times
#: must account for; the rest is the profiled loop's own bookkeeping.
MIN_TRACE_COVERAGE = 0.5

COUNTERS = ("flock.leader_cycles", "flock.credit_dry_waits",
            "flock.active_qps", "verbs.sends_posted", "cq.cqes",
            "rnic.packets_tx", "pcie.reads_issued",
            "fabric.messages_delivered", "fabric.messages_dropped",
            "switch.drops", "switch.ecn_marks", "switch.cnps",
            "ud.lost_requests")


class ChildFailed(Exception):
    pass


def child_env():
    """The caller's environment without any ``REPRO_*`` knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, timeout=None):
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD] + args, cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("%s timed out" % " ".join(args)) from exc
    wall = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("%s exited %d: %s" % (
            " ".join(args), proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def digests(result):
    return [(p["name"], p.get("digest")) for p in result["points"]]


def check_runs(runs):
    """Per point-run failures: its own errors, or outputs that differ
    from the first repetition's (the simulator must be deterministic)."""
    want = digests(runs[0])
    failed, errors = 0, []
    for run in runs:
        for point, expect in zip(run["points"], want):
            errs = list(point["errors"])
            if (point["name"], point.get("digest")) != expect:
                errs.append("outputs differ between repetitions")
            if errs:
                failed += 1
                errors.append("%s: %s" % (point["name"], "; ".join(errs)))
    return failed, errors


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(runs):
    med = statistics.median
    return {
        "wall_s": (med(r["wall_s"] for r in runs), "s"),
        "setup_s": (med(r["setup_s"] for r in runs), "s"),
        "sim_ops_per_s": (med(ratio(r["ops"], r["run.simulate_s"])
                              for r in runs), "ops/s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in runs), "MB"),
    }


def per_layer(traced, plain, calib):
    census = {"dispatched": 0, "cancelled": 0, "idle": 0, "host_s": 0.0}
    self_s = dict.fromkeys(COMPONENTS, 0.0)
    events = dict.fromkeys(COMPONENTS, 0)
    counters = {}
    finished = [p for p in traced["points"] if "census" in p]
    for point in finished:
        c = point["census"]
        for key in census:
            census[key] += c[key]
        for comp in COMPONENTS:
            self_s[comp] += c["self_s"].get(comp, 0.0)
            events[comp] += c["events"].get(comp, 0)
        for key, value in point["outputs"]["counters"].items():
            counters[key] = counters.get(key, 0) + value
    n_events = sum(p["outputs"]["events"] for p in finished)
    count = counters.get
    hits = count("rnic.server_qp_cache_hits", 0)
    traced_s = traced["run.simulate_s"]
    plain_s = plain["run.simulate_s"]
    m = {
        "setup.cluster_s": (traced["setup.cluster_s"], "s"),
        "setup.endpoints_s": (traced["setup.endpoints_s"], "s"),
        "run.simulate_s": (traced_s, "s"),
        "check.verify_s": (traced["check.verify_s"], "s"),
        "sim.events": (n_events, "count"),
        "sim.events_per_s": (ratio(n_events, plain_s), "1/s"),
        "sim.host_ns_per_event": (ratio(plain_s * 1e9, n_events), "ns"),
        "sim.cancelled": (census["cancelled"], "count"),
        "sim.idle_frac": (ratio(census["idle"], census["dispatched"]),
                          "ratio"),
        "sim.calib_events_per_s": (calib["sim.calib_events_per_s"], "1/s"),
    }
    for comp in COMPONENTS:
        m[comp + ".self_s"] = (self_s[comp], "s")
        m[comp + ".events"] = (events[comp], "count")
    m["flock.coalescing_degree"] = (ratio(count("flock.requests_sent", 0),
                                          count("flock.messages_sent", 0)),
                                    "ratio")
    m["rnic.qp_cache_hit_ratio"] = (
        ratio(hits, hits + count("rnic.server_qp_cache_misses", 0)), "ratio")
    for key in COUNTERS:
        m[key] = (count(key, 0), "count")
    m["trace.overhead_x"] = (ratio(traced_s, plain_s), "x")
    coverage = ratio(census["host_s"], traced_s)
    shares = sorted(((ratio(secs, traced_s), comp)
                     for comp, secs in self_s.items()), reverse=True)
    return m, coverage, shares


def measure(args):
    t_begin = perf_counter()

    def child(extra):
        left = t_begin + RUN_LIMIT_S - perf_counter()
        if left <= 0:
            raise ChildFailed("out of time")
        return run_child(extra, timeout=left)

    calib = child(["--calibrate"])
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    t0 = perf_counter()
    runs = [child(base)]
    traced = None
    if args.trace:
        trace_out = os.path.join(OUT_DIR, "%s-seed%d.trace.json"
                                 % (args.workload, args.seed))
        traced = child(base + ["--traced", "--trace-out", trace_out])
    else:
        while True:
            elapsed = perf_counter() - t0
            if len(runs) >= MIN_REPEATS and elapsed >= args.seconds:
                break
            if perf_counter() - t_begin + runs[-1]["wall_s"] > START_LIMIT_S:
                break
            runs.append(child(base))
    return calib, runs, traced


def write_record(args, calib, every, metrics):
    """Keep every repetition's timings beside the metrics and config."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d.trace%d.json"
                        % (args.workload, args.seed, args.trace))
    keys = ("wall_s", "setup_s", "run.simulate_s", "check.verify_s", "ops",
            "peak_rss_mb", "traced")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "calibration": calib,
                   "repetitions": [{k: r[k] for k in keys} for r in every],
                   "metrics": metrics, "config": every[0]["config"]},
                  fh, indent=1, sort_keys=True)


def report(args, calib, runs, traced):
    every = runs + ([traced] if traced else [])
    failed, errors = check_runs(every)
    attempted = sum(r["attempted"] for r in every)
    if traced:
        metrics, coverage, shares = per_layer(traced, runs[0], calib)
        if coverage < MIN_TRACE_COVERAGE:
            errors.append("component self time covers %.2f of the traced "
                          "simulate time" % coverage)
    else:
        metrics = end_to_end(runs)
    correct = not errors
    write_record(args, calib, every, metrics)
    refs = sorted({s for r in runs for s in r["reference"]})

    out = sys.stdout
    out.write("perfbench %s seed=%d repetitions=%d reference=%s\n" % (
        args.workload, args.seed, len(runs), ",".join(refs)))
    out.write("  %-26s %16s  %s\n" % ("metric", "value", "unit"))
    for name, (value, unit) in metrics.items():
        out.write("  %-26s %16.6g  %s\n" % (name, value, unit))
    out.write("  %-26s %16.6g  %s\n" % ("failed_frac", failed / attempted,
                                        "ratio"))
    if not traced:
        out.write("  %-26s %16.6g  %s\n" % (
            "sim.calib_events_per_s", calib["sim.calib_events_per_s"],
            "1/s"))
    else:
        out.write("  self time covers %.3f of traced run.simulate_s; by "
                  "component: %s\n" % (coverage, ", ".join(
                      "%s %.1f%%" % (comp, 100 * share)
                      for share, comp in shares if share > 0)))
    for err in errors:
        out.write("  FAIL %s\n" % err)
    out.write("config %s\n" % json.dumps(runs[0]["config"], sort_keys=True))
    out.write(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }) + "\n")
    return 0 if correct else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_reference(seeds, workloads):
    """Re-record the stored outputs for ``seeds`` (two processes at a time)."""
    try:
        with open(REFERENCE_FILE) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    jobs = [(w, s) for w in workloads for s in seeds]

    def one(job):
        workload, seed = job
        result = run_child(["--workload", workload, "--seed", str(seed),
                            "--no-reference"])
        bad = [p["name"] for p in result["points"] if not p["ok"]]
        if bad:
            raise ChildFailed("%s seed %d: failed points %s"
                              % (workload, seed, bad))
        return {p["name"]: p["outputs"] for p in result["points"]}

    with ThreadPoolExecutor(max_workers=2) as pool:
        for (workload, seed), outputs in zip(jobs, pool.map(one, jobs)):
            table.setdefault(workload, {})[str(seed)] = outputs
            print("recorded %s seed %d" % (workload, seed), flush=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--seeds", default="0-31",
                    help="seeds to record, e.g. 0-31 or 1,5,9")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("perfbench: %s holds no src/repro to measure\n"
                         % ROOT)
        return 2
    if args.record_reference:
        record_reference(parse_seeds(args.seeds),
                         [args.workload] if args.workload else WORKLOADS)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        calib, runs, traced = measure(args)
    except ChildFailed as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    return report(args, calib, runs, traced)


if __name__ == "__main__":
    sys.exit(main())
