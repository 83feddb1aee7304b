"""Command-line experiment runner.

Regenerates any paper figure without pytest::

    python -m repro.harness.cli fig2a
    python -m repro.harness.cli fig6 --threads 1 8 32 --outstanding 1
    python -m repro.harness.cli fig14 --threads 4
    python -m repro.harness.cli list

Each command prints the same paper-style table the benchmark suite
produces.  Use ``--scale`` to lengthen measurement windows.

Observability flags (see ``docs/observability.md``)::

    python -m repro.harness.cli --breakdown fig2a
    python -m repro.harness.cli --trace fig6.trace.json fig6 --threads 8
    python -m repro.harness.cli --metrics fig2a.metrics.json fig2a

``--trace`` writes a Chrome trace-event file (load it at
``ui.perfetto.dev``), ``--metrics`` dumps every counter/gauge/histogram
(JSON, or CSV when the filename ends in ``.csv``), and ``--breakdown``
prints the phase-level latency table aggregated over all traced spans.

Causal critical-path attribution (``docs/observability.md``)::

    python -m repro.harness.cli --attribution fig2a
    python -m repro.harness.cli --attribution-json fig2a.attr.json fig2a
    python -m repro.harness.cli --critical-path fig2a.folded fig2a

``--attribution`` prints, per run, the blocked-time attribution table
over every traced RPC's critical path plus the what-if speedup upper
bound per resource.  ``--attribution-json`` writes the full report
(paths, shares, what-if bounds) as JSON; ``--critical-path`` writes the
critical paths as folded stacks for flamegraph.pl / speedscope (use
``-`` or no filename for stdout).

Auditing and paper-fidelity scorecards::

    python -m repro.harness.cli --audit fig2a
    python -m repro.harness.cli --scorecard out/ fig10
    python -m repro.harness.cli bench-compare --current out/

``--audit`` runs the end-of-run invariant auditors (Little's law, byte
and CQE conservation, credit accounting, ...) after every experiment and
raises on any violation.  ``--scorecard DIR`` writes a
``BENCH_<figure>.json`` scorecard per figure; ``bench-compare`` diffs a
directory of scorecards against the committed baselines in
``benchmarks/baselines`` and exits nonzero on regression.

Anomaly detection and explanations (``docs/observability.md``)::

    python -m repro.harness.cli explain fig2a
    python -m repro.harness.cli explain fig2a --json fig2a.anomalies.json
    python -m repro.harness.cli explain run:latest

``explain fig2a`` reruns the figure with spans on, auto-detects curve
cliffs/knees and per-window changepoints/counter bursts (no per-figure
thresholds), and explains each anomaly as a pre-vs-post attribution
diff — the ranked resource-shift table plus the what-if recovery bound
for the prime suspect.  ``explain run:N`` (or ``run:-1`` /
``run:latest``) explains the anomaly blocks a recorded run's
scorecards carry; ``runs diff A B`` additionally reports anomaly-set
drift (new / vanished / moved) between two runs.

Simulation cost observatory (``docs/observability.md``)::

    python -m repro.harness.cli --profile fig2a
    python -m repro.harness.cli profile --flame fig2a.folded fig2a
    python -m repro.harness.cli profile --census fig6.json fig6 --threads 8

``--profile`` (or the ``profile`` subcommand, which wraps any figure)
runs every simulation through the instrumented loop: wall-clock ns are
attributed to the owning component (fabric, switch, rnic, pcie, cq,
credits, timers, ...), scheduled/dispatched/cancelled events are
censused per virtual-time window, and resource occupancy (DMA engines,
PCIe slots, switch ports, credit pools, QP-scheduler slots) is tracked
as heatmap-ready per-window series.  Virtual-time results are
byte-identical to an unprofiled run.  ``--flame`` writes the host time
as folded stacks; ``--profile-json`` / ``--census`` write the full
report; ``--occupancy`` tracks occupancy without the profiler.  Every
run also records wall-clock seconds and events/sec (profiler-free), so
``runs query 'fig2a.events_per_sec < 2e6'`` can hunt host-cost drift.

Fabric congestion (``docs/network.md``)::

    python -m repro.harness.cli --congestion fig6 --threads 8
    python -m repro.harness.cli --congestion --pfc fig6 --threads 8
    python -m repro.harness.cli --audit incast --senders 12

``--congestion`` routes every transfer through the switched-fabric
model (finite per-port egress buffers, ECN marking, DCQCN rate control
on RC QPs); ``--pfc`` selects lossless PAUSE mode instead of tail drop.
The ``incast`` experiment runs its own congestion sweep internally and
ignores both flags for its baseline legs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import replace
from typing import List

from ..obs import (
    Explanation,
    RunStore,
    Scorecard,
    Telemetry,
    attribute,
    attribution_report,
    compare_dirs,
    current_telemetry,
    disable,
    enable,
    explain_changepoint,
    explain_sweep_anomalies,
    folded_lines,
    folded_stacks,
    format_attribution,
    format_breakdown,
    format_explanation,
    load_scorecard,
    what_if_all,
    write_chrome_trace,
)
from ..config import CONGESTION_ENV, FIDELITY_ENV, FIDELITY_MODES, PFC_ENV
from .incastbench import IncastConfig, run_incast
from .indexbench import sweep_index
from .lifecycle import RunSpec
from .microbench import (
    MicrobenchConfig,
    run_flock,
    run_rc,
    sweep_flock_vs_erpc,
    sweep_raw_reads,
    sweep_ud_rpc,
)
from ..search import (
    SearchConfig,
    explain_entry,
    format_entry,
    leaderboard_rows,
    run_search,
)
from ..search.objectives import OBJECTIVES
from .parallel import SweepPoint, run_sweep
from .scorecards import (
    run_blocks,
    scorecard_fig2a,
    scorecard_fig9,
    scorecard_fig10,
    scorecard_fig12,
    scorecard_fig14,
    scorecard_incast,
    scorecard_search,
    scorecards_fig6_7_8,
)
from .tables import latency_cells, latency_columns, print_table
from .txnbench import sweep_txn

#: Default committed-baseline directory for ``bench-compare``.
DEFAULT_BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))),
    "benchmarks", "baselines")


def _stamp_spec(sc, spec: RunSpec) -> None:
    """Stamp the comparability keys of ``spec`` into a scorecard's meta."""
    for key, value in spec.comparable_meta().items():
        sc.meta.setdefault(key, value)


def _emit_scorecard(args, sc) -> None:
    """Write a figure's scorecard when ``--scorecard DIR`` was given."""
    if not getattr(args, "scorecard", None):
        return
    _stamp_spec(sc, args.spec)
    path = sc.write(args.scorecard)
    print("wrote scorecard: %s (%s)" % (path,
                                        "PASS" if sc.passed else "FAIL"))


def _collect_runs(args, results) -> None:
    """Gather each run's SLO, cost-observatory and host blocks for the
    ``--slo-timeline`` / ``--profile`` exports (every figure command
    calls this; :func:`main` decides what to write)."""
    for attr, blocks in args.collected.items():
        blocks.update(run_blocks(results, attr))


def cmd_fig2a(args) -> None:
    """Fig 2(a): RC read scaling sweep."""
    results = sweep_raw_reads(args.qps, n_clients=args.clients,
                              outstanding_per_qp=2,
                              spec=args.spec, jobs=args.spec.jobs)
    rows = [[qps, round(result.mops, 2), result.extras["qp_cache_miss"]]
            for qps, result in results.items()]
    print_table("Fig 2(a): RC read throughput vs #QPs",
                ["#QPs", "Mops", "cache miss"], rows)
    _collect_runs(args, results)
    _emit_scorecard(args, scorecard_fig2a(results))


def cmd_fig2b(args) -> None:
    """Fig 2(b): UD RPC sender sweep."""
    results = sweep_ud_rpc(args.senders, n_clients=args.clients,
                           spec=args.spec, jobs=args.spec.jobs)
    rows = [[senders, round(result.mops, 2), result.extras["server_cpu"]]
            for senders, result in results.items()]
    print_table("Fig 2(b): UD RPC throughput vs #senders",
                ["#senders", "Mops", "server CPU"], rows)
    _collect_runs(args, results)


def cmd_fig6(args) -> None:
    """Figs 6-8: FLock vs eRPC thread sweep."""
    results = sweep_flock_vs_erpc(args.threads, n_clients=args.clients,
                                  outstanding=args.outstanding,
                                  spec=args.spec, jobs=args.spec.jobs)
    rows = []
    for threads in args.threads:
        flock = results[("flock", args.outstanding, threads)]
        erpc = results[("erpc", args.outstanding, threads)]
        rows.append([threads, round(flock.mops, 2), round(erpc.mops, 2)]
                    + latency_cells(flock) + latency_cells(erpc))
    print_table("Figs 6/7/8: FLock vs eRPC (outstanding=%d)"
                % args.outstanding,
                ["threads", "FLock Mops", "eRPC Mops"]
                + latency_columns("FLock") + latency_columns("eRPC"), rows)
    _collect_runs(args, results)
    for sc in scorecards_fig6_7_8(results):
        _emit_scorecard(args, sc)


def cmd_fig9(args) -> None:
    """Fig 9: QP sharing approaches."""
    points = []
    for threads in args.threads:
        cfg = MicrobenchConfig(n_clients=args.clients,
                               threads_per_client=threads, outstanding=8)
        points.append(SweepPoint("fig9/flock/t=%d" % threads,
                                 run_flock, (cfg,), {"spec": args.spec}))
        for tpq in (1, 2, 4):
            points.append(SweepPoint(
                "fig9/rc%d/t=%d" % (tpq, threads), run_rc, (cfg,),
                {"threads_per_qp": tpq, "spec": args.spec}))
    merged = iter(run_sweep(points, args.spec.jobs))
    results = {}
    rows = []
    for threads in args.threads:
        results[("flock", threads)] = next(merged)[1]
        results[("nosharing", threads)] = next(merged)[1]
        results[("farm2", threads)] = next(merged)[1]
        results[("farm4", threads)] = next(merged)[1]
        rows.append([threads,
                     round(results[("flock", threads)].mops, 2),
                     round(results[("nosharing", threads)].mops, 2),
                     round(results[("farm2", threads)].mops, 2),
                     round(results[("farm4", threads)].mops, 2)])
    print_table("Fig 9: sharing approaches",
                ["threads", "FLock", "no-share", "FaRM-2", "FaRM-4"], rows)
    _collect_runs(args, results)
    _emit_scorecard(args, scorecard_fig9(results))


def cmd_fig10(args) -> None:
    """Fig 10: coalescing on/off."""
    points = []
    for outstanding in args.outstanding_list:
        cfg = MicrobenchConfig(n_clients=args.clients,
                               threads_per_client=32,
                               outstanding=outstanding)
        points.append(SweepPoint("fig10/on/o=%d" % outstanding,
                                 run_flock, (cfg,), {"spec": args.spec}))
        points.append(SweepPoint("fig10/off/o=%d" % outstanding,
                                 run_flock, (cfg,),
                                 {"coalescing": False, "spec": args.spec}))
    merged = iter(run_sweep(points, args.spec.jobs))
    results = {}
    rows = []
    for outstanding in args.outstanding_list:
        with_c = results[(True, outstanding)] = next(merged)[1]
        without_c = results[(False, outstanding)] = next(merged)[1]
        rows.append([outstanding, round(without_c.mops, 2),
                     round(with_c.mops, 2),
                     round(with_c.mops / max(without_c.mops, 1e-9), 2),
                     with_c.extras["mean_coalescing_degree"]])
    print_table("Fig 10: coalescing impact",
                ["outstanding", "off Mops", "on Mops", "speedup",
                 "reqs/msg"], rows)
    _collect_runs(args, results)
    _emit_scorecard(args, scorecard_fig10(results))


def cmd_fig14(args) -> None:
    """Figs 14/15: FLockTX vs FaSST transactions."""
    results = sweep_txn(args.threads, workload=args.workload,
                        spec=args.spec, jobs=args.spec.jobs)
    rows = []
    for threads in args.threads:
        flock = results[("flocktx", threads)]
        fasst = results[("fasst", threads)]
        rows.append([threads, round(flock.mops, 3), round(fasst.mops, 3),
                     round(flock.p99_us, 1), round(flock.p999_us, 1),
                     round(fasst.p99_us, 1), round(fasst.p999_us, 1)])
    print_table("Figs 14/15: %s — FLockTX vs FaSST" % args.workload,
                ["threads", "FLockTX Mtxn/s", "FaSST Mtxn/s",
                 "FLockTX p99", "FLockTX p999", "FaSST p99", "FaSST p999"],
                rows)
    _collect_runs(args, results)
    builder = scorecard_fig14 if args.workload == "tatp" else None
    if builder is None:
        from .scorecards import scorecard_fig15
        builder = scorecard_fig15
    _emit_scorecard(args, builder(results))


def cmd_fig11(args) -> None:
    """Fig 11: sender-side thread scheduling under mixed payloads."""
    from ..config import FlockConfig
    from ..workloads import BimodalSize

    static_cfg = FlockConfig(max_aqp=100_000)
    points = []
    for size in args.sizes:
        cfg = MicrobenchConfig(
            n_clients=args.clients, threads_per_client=32, outstanding=8,
            sizegen=BimodalSize(n_threads=32, large_size=size))
        points.append(SweepPoint(
            "fig11/nosched/s=%d" % size, run_flock, (cfg,),
            {"qps_per_process": 16, "thread_scheduling": False,
             "flock_cfg": static_cfg, "spec": args.spec}))
        points.append(SweepPoint(
            "fig11/sched/s=%d" % size, run_flock, (cfg,),
            {"qps_per_process": 16, "spec": args.spec}))
    merged = iter(run_sweep(points, args.spec.jobs))
    rows = []
    results = {}
    for size in args.sizes:
        without = results[("nosched", size)] = next(merged)[1]
        with_sched = results[("sched", size)] = next(merged)[1]
        rows.append([size, round(without.mops, 2), round(with_sched.mops, 2),
                     round(with_sched.mops / max(without.mops, 1e-9), 2)])
    print_table("Fig 11: thread scheduling (90% 64B + 10% large)",
                ["large B", "no-sched Mops", "sched Mops", "speedup"], rows)
    _collect_runs(args, results)


def cmd_fig12(args) -> None:
    """Fig 12: node scalability with increasing client processes."""
    points = []
    for total in args.clients_list:
        procs = max(1, total // args.nodes)
        points.append(SweepPoint(
            "fig12/2t1q/c=%d" % total, run_flock,
            (MicrobenchConfig(n_clients=args.nodes,
                              processes_per_client=procs,
                              threads_per_client=2, outstanding=8),),
            {"qps_per_process": 1, "spec": args.spec}))
        points.append(SweepPoint(
            "fig12/1t1q/c=%d" % total, run_flock,
            (MicrobenchConfig(n_clients=args.nodes,
                              processes_per_client=procs,
                              threads_per_client=1, outstanding=8),),
            {"qps_per_process": 1, "spec": args.spec}))
    merged = iter(run_sweep(points, args.spec.jobs))
    results = {}
    rows = []
    for total in args.clients_list:
        shared = results[("2t1q", total)] = next(merged)[1]
        one = results[("1t1q", total)] = next(merged)[1]
        rows.append([total, round(one.mops, 2), round(shared.mops, 2),
                     round(shared.p99_us, 1), round(shared.p999_us, 1)])
    print_table("Fig 12: node scalability",
                ["#clients", "1t/1QP Mops", "2t/1QP Mops", "2t/1QP p99 us",
                 "2t/1QP p999 us"],
                rows)
    _collect_runs(args, results)
    _emit_scorecard(args, scorecard_fig12(results))


def cmd_fig16(args) -> None:
    """Figs 16-18: HydraList over FLock vs eRPC."""
    results = sweep_index(args.threads, n_clients=args.clients,
                          outstanding=args.outstanding,
                          spec=args.spec, jobs=args.spec.jobs)
    rows = []
    for threads in args.threads:
        flock = results[("flock", threads)]
        erpc = results[("erpc", threads)]
        rows.append([threads, round(flock["total_mops"], 2),
                     round(erpc["total_mops"], 2),
                     round(flock["get"].median_us, 1),
                     round(erpc["get"].median_us, 1)])
    print_table("Figs 16-18: HydraList — FLock vs eRPC",
                ["threads", "FLock Mops", "eRPC Mops", "FLock get med",
                 "eRPC get med"], rows)
    _collect_runs(args, results)


def cmd_incast(args) -> None:
    """Extension: N→1 incast degradation under the congestion model."""
    cfg = IncastConfig(n_senders=args.senders,
                       threads_per_client=args.threads,
                       outstanding=args.outstanding)
    if args.pfc_incast:
        cfg.congestion = replace(cfg.congestion, pfc=True)
    results = run_incast(cfg, spec=args.spec, jobs=args.spec.jobs)
    rows = []
    for key in ("flock", "ud"):
        base = results["%s_base" % key]
        cong = results["%s_cong" % key]
        rows.append([key, round(base.mops, 2), round(cong.mops, 2),
                     round(results["%s_retention" % key], 3),
                     cong.extras.get("switch_drops", 0),
                     cong.extras.get("ecn_marks", 0),
                     cong.extras.get("pfc_pauses", 0)])
    print_table("Incast: %d senders x %d threads -> 1 server"
                % (args.senders, args.threads),
                ["system", "base Mops", "cong Mops", "retention",
                 "drops", "marks", "pauses"], rows)
    _collect_runs(args, results)
    _emit_scorecard(args, scorecard_incast(results))


def _search_summary_scorecard(result) -> Scorecard:
    """The light per-search scorecard recorded into run history, so
    ``runs query label=<search_id>`` / ``figure=search`` slice it."""
    sc = Scorecard("search", "scenario search: %s" % result.search_id)
    best = result.best
    sc.add_metric("best_score", best["score"] if best else 0.0,
                  better="info")
    sc.add_metric("n_evals", result.n_evals, better="info")
    sc.add_metric("n_dedup", result.n_dedup, better="info")
    sc.meta["search"] = {
        "search_id": result.search_id,
        "objective": result.objective,
        "seed": result.seed,
        "budget": result.budget,
        "leaderboard": [
            {"rank": rank, "fingerprint": e["fingerprint"],
             "score": e["score"]}
            for rank, e in enumerate(result.leaderboard[:10], start=1)],
    }
    return sc


def cmd_search(args) -> int:
    """Adversarial scenario search (see docs/search.md)."""
    cfg = SearchConfig(objective=args.objective, budget=args.budget,
                       seed=args.seed, jobs=args.spec.jobs,
                       warmup=args.warmup, elites=args.elites)
    result = run_search(cfg, progress=print, spec=args.spec)
    columns, rows = leaderboard_rows(result, args.top)
    print_table("leaderboard: %s (%d evals, %d dedup)"
                % (result.search_id, result.n_evals, result.n_dedup),
                columns, rows)

    n_explain = (args.explain_top if args.explain_top is not None
                 else min(3, len(result.leaderboard)))
    details = []
    for rank, entry in enumerate(result.leaderboard[:n_explain], start=1):
        detail = explain_entry(entry, seed=cfg.seed, spec=args.spec)
        details.append(detail)
        print()
        print(format_entry(detail, rank))

    if args.json:
        payload = {"search": result.to_dict(), "explanations": details}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print()
        print("wrote search result: %s" % args.json)

    exported = []
    if args.export_scenario:
        name, _, rank_text = args.export_scenario.partition(":")
        rank = int(rank_text) if rank_text else 1
        if not 1 <= rank <= len(result.leaderboard):
            print("--export-scenario: rank %d out of range (1..%d)"
                  % (rank, len(result.leaderboard)))
            return 1
        if rank <= len(details):
            detail = details[rank - 1]
        else:
            detail = explain_entry(result.leaderboard[rank - 1],
                                   seed=cfg.seed, spec=args.spec)
        sc = scorecard_search(name, detail, objective=result.objective)
        _stamp_spec(sc, args.spec)
        path = sc.write(args.scorecard or ".")
        print("wrote scenario scorecard: %s (%s)"
              % (path, "PASS" if sc.passed else "FAIL"))
        exported.append(sc)

    if not args.no_record:
        try:
            rec = RunStore(args.store).record(
                [_search_summary_scorecard(result)] + exported,
                label=result.search_id,
                meta={"objective": result.objective, "seed": result.seed,
                      "budget": result.budget})
            print("recorded search run %d (label %s)"
                  % (rec.run_id, result.search_id))
        except OSError as exc:
            print("warning: could not record search run: %s" % exc)
    return 0


def _emit_attribution(args, telemetry) -> None:
    """Print per-run attribution tables and/or write the JSON report.

    Runs with no traced critical paths (nothing finished, tracing off for
    that runner) are skipped rather than printed empty.
    """
    report = {}
    for run_id in sorted(telemetry.spans.run_labels):
        label = telemetry.spans.run_labels[run_id]
        paths = telemetry.critical_paths(run=run_id)
        if not paths:
            continue
        if args.attribution:
            print()
            print(format_attribution(
                attribute(paths), bounds=what_if_all(paths),
                title="Critical-path attribution (%s)" % label))
        if args.attribution_json:
            report[label] = attribution_report(paths)
    if args.attribution_json:
        import json

        with open(args.attribution_json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote attribution report: %s (%d runs)"
              % (args.attribution_json, len(report)))


def _explain_figure(figure: str, meta: dict, telemetry):
    """Explanations for one figure's recorded anomaly block.

    Sweep anomalies join to the scorecard's ``meta["attribution"]``
    blocks through the stored x → run-label map; within-run anomalies
    (changepoints, counter bursts) are time-split against live critical
    paths when a spans-carrying telemetry is in hand, and degrade to a
    noted partial explanation for stored runs.
    """
    block = meta.get("anomalies") or {}
    attribution = meta.get("attribution") or {}
    labels = block.get("labels") or {}
    exps = explain_sweep_anomalies(block.get("sweep") or [],
                                   attribution, labels)
    rev = {}
    if telemetry is not None:
        rev = {label: rid for rid, label
               in telemetry.spans.run_labels.items()}
    for key in sorted(block.get("runs") or {}):
        run_label = labels.get(key, key)
        run_id = rev.get(run_label)
        for data in block["runs"][key]:
            if run_id is None:
                exps.append(Explanation(
                    anomaly=data, pre_label="", post_label="",
                    note="within-run attribution split needs live spans "
                         "(stored scorecards keep tables, not traces)"))
            else:
                exps.append(explain_changepoint(
                    data, telemetry.critical_paths(run=run_id),
                    label=run_label))
    return exps, block


def _emit_explanations(args, per_figure) -> int:
    """Print explanation blocks (and the ``--json`` report) per figure."""
    report = {}
    total = 0
    for figure in sorted(per_figure):
        exps, block = per_figure[figure]
        total += len(exps)
        print()
        print("=== %s: %d anomal%s ===" % (
            figure, len(exps), "y" if len(exps) == 1 else "ies"))
        if not exps:
            print("no anomalies detected")
        for exp in exps:
            print()
            print(format_explanation(exp))
        report[figure] = {"anomalies": block,
                          "explanations": [e.to_dict() for e in exps]}
    if getattr(args, "explain_json", None):
        with open(args.explain_json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print()
        print("wrote explanation report: %s (%d anomalies)"
              % (args.explain_json, total))
    return 0


def _explain_live_fig2a(args) -> int:
    """Run the Fig. 2a sweep with spans on and explain its anomalies."""
    prev = current_telemetry()
    own = prev is None or not getattr(prev, "wants_spans", False)
    tel = enable(Telemetry(wants_spans=True)) if own else prev
    try:
        # A spans-wanting telemetry forces run_sweep serial, so the
        # detected anomaly set is byte-identical for any --jobs count.
        results = sweep_raw_reads(args.qps, n_clients=args.clients,
                                  outstanding_per_qp=2,
                                  spec=args.spec, jobs=args.spec.jobs)
        sc = scorecard_fig2a(results)
    finally:
        if own:
            if prev is not None:
                enable(prev)
            else:
                disable()
    _collect_runs(args, results)
    _emit_scorecard(args, sc)
    exps, block = _explain_figure("fig2a", sc.meta, tel)
    return _emit_explanations(args, {"fig2a": (exps, block)})


def _looks_like_run_ref(target: str) -> bool:
    """True when the explain target names a stored run, not a figure."""
    if target.startswith("run:") or target == "latest":
        return True
    try:
        int(target)
    except ValueError:
        return False
    return True


def _explain_stored(args) -> int:
    """Explain the anomaly blocks a recorded run's scorecards carry."""
    try:
        rec = _runstore(args).get(args.target)
    except KeyError as exc:
        print(exc.args[0])
        return 1
    print("explaining run %d (label=%s)" % (rec.run_id, rec.label or "-"))
    per_figure = {}
    for figure in rec.figures:
        meta = rec.scorecards[figure].get("meta", {})
        exps, block = _explain_figure(figure, meta, None)
        if block:
            per_figure[figure] = (exps, block)
    if not per_figure:
        print("run %d recorded no anomalies" % rec.run_id)
        return 0
    return _emit_explanations(args, per_figure)


def cmd_explain(args) -> int:
    """Detect-and-explain: live figure rerun or a stored run's blocks."""
    if _looks_like_run_ref(args.target):
        return _explain_stored(args)
    if args.target != "fig2a":
        print("explain: unsupported live target %r (live: fig2a; "
              "stored: run:N, run:-N, run:latest)" % args.target)
        return 1
    return _explain_live_fig2a(args)


def _emit_profile(args) -> None:
    """Print the cost-observatory summary and write ``--flame`` /
    ``--profile-json`` exports from the collected profile blocks."""
    blocks = args.collected["profile"]
    hosts = args.collected["host"]
    rows = []
    for label in sorted(blocks):
        rep = blocks[label]
        host = rep.get("host") or {}
        census = rep.get("census") or {}
        buckets = host.get("buckets") or []
        measure = (rep.get("phases") or {}).get("measure") or {}
        top = ("%s %.0f%%" % (buckets[0]["component"],
                              buckets[0]["share"] * 100.0)
               if buckets else "-")
        rows.append([label,
                     round(host.get("total_ns", 0) / 1e6, 2),
                     census.get("dispatched", "-"),
                     int(measure.get("events_per_sec") or 0) or "-",
                     census.get("dominant_component", "-"),
                     top])
    if rows:
        print()
        print_table("Cost observatory",
                    ["run", "host ms", "dispatched", "ev/s (measure)",
                     "top events", "top host time"], rows)
    if getattr(args, "flame", None):
        weights = {}
        for label, rep in blocks.items():
            for b in (rep.get("host") or {}).get("buckets", ()):
                key = "%s;%s;%s" % (label, b["component"], b["kind"])
                weights[key] = weights.get(key, 0.0) + b["ns"]
        with open(args.flame, "w") as fh:
            fh.write(folded_lines(weights))
        print("wrote host-time flamegraph: %s (%d frames)"
              % (args.flame, len(weights)))
    if getattr(args, "profile_json", None):
        with open(args.profile_json, "w") as fh:
            json.dump({"runs": blocks, "host": hosts}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote cost-observatory report: %s (%d runs)"
              % (args.profile_json, len(blocks)))


def cmd_profile(args) -> int:
    """Re-dispatch a figure run with the cost observatory on.

    ``repro profile --flame f.folded fig2a --qps 22 704`` is exactly
    ``repro --profile --flame f.folded fig2a --qps 22 704``; the
    subcommand exists so profiling any figure is one word, with the
    figure's own flags passed through verbatim.
    """
    rest = [a for a in args.rest if a != "--"]
    if not rest:
        print("profile: name a figure to profile (profile fig2a ...)")
        return 2
    argv = []
    if args.flame:
        argv += ["--flame", args.flame]
    if args.census:
        argv += ["--profile-json", args.census]
    spec = replace(args.spec, profile=True, occupancy=not args.no_occupancy)
    return _dispatch(build_parser().parse_args(argv + rest), spec)


def cmd_bench_compare(args) -> int:
    """Gate current scorecards against committed baselines."""
    report = compare_dirs(args.baseline, args.current, figures=args.figures)
    print(report.format())
    return 0 if report.ok else 1


def _runstore(args) -> RunStore:
    """The run store the ``runs`` subcommands operate on."""
    return RunStore(args.store)


def cmd_runs_list(args) -> int:
    """List every recorded run."""
    records = _runstore(args).list()
    if not records:
        print("run store is empty (%s)" % _runstore(args).path)
        return 0
    print_table("run history",
                ["id", "when", "label", "commit", "config", "figures",
                 "checks"],
                [rec.summary_row() for rec in records])
    return 0


def cmd_runs_show(args) -> int:
    """Show one run's scorecards in full."""
    try:
        rec = _runstore(args).get(args.ref)
    except KeyError as exc:
        print(exc.args[0])
        return 1
    head = rec.summary_row()
    print("run %s  %s  label=%s  commit=%s  config=%s" % (
        head[0], head[1], head[2], head[3], head[4]))
    for figure in rec.figures:
        print()
        print(rec.scorecard(figure).format())
    return 0


def cmd_runs_diff(args) -> int:
    """Diff run B against run A's tolerances; exit 1 on regression."""
    try:
        report = _runstore(args).diff(args.a, args.b)
    except KeyError as exc:
        print(exc.args[0])
        return 1
    print("runs diff %s -> %s" % (args.a, args.b))
    print(report.format())
    return 0 if report.ok else 1


def cmd_runs_record(args) -> int:
    """Record a directory of BENCH_*.json scorecards as one run."""
    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    if not paths:
        print("no BENCH_*.json scorecards in %s" % args.dir)
        return 1
    rec = _runstore(args).record([load_scorecard(p) for p in paths],
                                 label=args.label)
    print("recorded run %d: %d figure(s) (%s), config %s"
          % (rec.run_id, len(rec.figures), ", ".join(rec.figures),
             rec.fingerprint))
    return 0


def cmd_runs_query(args) -> int:
    """Filter run history by field and metric expressions."""
    matches = _runstore(args).query(args.exprs)
    if not matches:
        print("no runs match: %s" % " ".join(args.exprs))
        return 0
    print_table("runs matching: %s" % " ".join(args.exprs),
                ["id", "when", "label", "commit", "config", "figures",
                 "checks"],
                [rec.summary_row() for rec in matches])
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree: one subcommand per experiment."""
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate FLock paper experiments")
    parser.add_argument("--scale", type=float, default=None,
                        help="measurement-window multiplier")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan independent sweep points across N worker "
                             "processes (default: serial; REPRO_JOBS env "
                             "also sets it).  Results are byte-identical "
                             "to a serial run; observability flags force "
                             "serial execution — see docs/performance.md")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of every "
                             "traced RPC (open in ui.perfetto.dev)")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="write a metrics snapshot (JSON, or CSV when "
                             "the name ends in .csv)")
    parser.add_argument("--breakdown", action="store_true",
                        help="print the phase-level latency breakdown "
                             "after the experiment")
    parser.add_argument("--attribution", action="store_true",
                        help="print per-run critical-path attribution "
                             "tables with what-if speedup bounds")
    parser.add_argument("--attribution-json", metavar="FILE", default=None,
                        help="write the full attribution report (paths, "
                             "shares, what-if bounds) as JSON")
    parser.add_argument("--critical-path", metavar="FILE", nargs="?",
                        const="-", default=None,
                        help="write critical paths as folded stacks for "
                             "flamegraph.pl/speedscope (omit FILE or pass "
                             "- for stdout)")
    parser.add_argument("--audit", action="store_true",
                        help="run the end-of-run invariant auditors after "
                             "every experiment (fails on any violation)")
    parser.add_argument("--congestion", action="store_true",
                        help="run experiments on the switched-fabric "
                             "congestion model (finite egress buffers, "
                             "ECN/DCQCN) instead of the contention-free "
                             "fabric — see docs/network.md")
    parser.add_argument("--pfc", action="store_true",
                        help="with the congestion model, use lossless "
                             "PFC PAUSE instead of tail drop (implies "
                             "--congestion)")
    parser.add_argument("--fidelity", choices=list(FIDELITY_MODES),
                        default=None,
                        help="transport-model fidelity: 'packet' (the "
                             "calibrated stepped pipeline, default), "
                             "'fluid' (analytic O(1)-event transfers), or "
                             "'hybrid' (fluid with automatic packet-level "
                             "demotion at hotspots) — see docs/network.md")
    parser.add_argument("--scorecard", metavar="DIR", default=None,
                        help="write BENCH_<figure>.json paper-fidelity "
                             "scorecards into DIR")
    parser.add_argument("--slo-timeline", metavar="FILE", default=None,
                        help="write every run's windowed SLO timeline "
                             "(per-window p50/p99/p999, goodput, counter "
                             "deltas, threshold violations) as JSON")
    parser.add_argument("--profile", action="store_true",
                        help="run the cost observatory: host-time "
                             "profiler + event census (and resource "
                             "occupancy unless REPRO_OCCUPANCY=0) — "
                             "virtual-time results are unchanged")
    parser.add_argument("--occupancy", action="store_true",
                        help="track resource occupancy timelines "
                             "(RNIC/PCIe/switch/credits/CQ) without the "
                             "host-time profiler")
    parser.add_argument("--flame", metavar="FILE", default=None,
                        help="write the profiled host time as folded "
                             "stacks for flamegraph.pl/speedscope "
                             "(implies --profile)")
    parser.add_argument("--profile-json", metavar="FILE", default=None,
                        help="write every run's cost-observatory report "
                             "(census, host buckets, occupancy heatmap) "
                             "as JSON (implies --profile)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig2a", help="RC read scaling (Fig 2a)")
    p.add_argument("--qps", type=int, nargs="+",
                   default=[22, 176, 704, 2816])
    p.add_argument("--clients", type=int, default=22)
    p.set_defaults(fn=cmd_fig2a)

    p = sub.add_parser("fig2b", help="UD RPC scaling (Fig 2b)")
    p.add_argument("--senders", type=int, nargs="+", default=[22, 352, 1408])
    p.add_argument("--clients", type=int, default=22)
    p.set_defaults(fn=cmd_fig2b)

    p = sub.add_parser("fig6", help="FLock vs eRPC (Figs 6-8)")
    p.add_argument("--threads", type=int, nargs="+", default=[1, 8, 16, 32])
    p.add_argument("--outstanding", type=int, default=1)
    p.add_argument("--clients", type=int, default=23)
    p.set_defaults(fn=cmd_fig6)

    p = sub.add_parser("fig9", help="sharing approaches (Fig 9)")
    p.add_argument("--threads", type=int, nargs="+", default=[8, 32])
    p.add_argument("--clients", type=int, default=23)
    p.set_defaults(fn=cmd_fig9)

    p = sub.add_parser("fig10", help="coalescing ablation (Fig 10)")
    p.add_argument("--outstanding-list", type=int, nargs="+",
                   default=[1, 4, 8])
    p.add_argument("--clients", type=int, default=23)
    p.set_defaults(fn=cmd_fig10)

    p = sub.add_parser("fig11", help="thread scheduling (Fig 11)")
    p.add_argument("--sizes", type=int, nargs="+", default=[512, 1024])
    p.add_argument("--clients", type=int, default=23)
    p.set_defaults(fn=cmd_fig11)

    p = sub.add_parser("fig12", help="node scalability (Fig 12)")
    p.add_argument("--clients-list", type=int, nargs="+",
                   default=[46, 184, 368])
    p.add_argument("--nodes", type=int, default=23)
    p.set_defaults(fn=cmd_fig12)

    p = sub.add_parser("fig14", help="transactions (Figs 14-15)")
    p.add_argument("--workload", choices=["tatp", "smallbank"],
                   default="tatp")
    p.add_argument("--threads", type=int, nargs="+", default=[2, 8])
    p.set_defaults(fn=cmd_fig14)

    p = sub.add_parser("fig16", help="HydraList (Figs 16-18)")
    p.add_argument("--threads", type=int, nargs="+", default=[8, 32])
    p.add_argument("--outstanding", type=int, default=8)
    p.add_argument("--clients", type=int, default=22)
    p.set_defaults(fn=cmd_fig16)

    p = sub.add_parser("incast", help="N->1 incast degradation: FLock "
                                      "vs UD under fabric congestion")
    p.add_argument("--senders", type=int, default=12)
    p.add_argument("--threads", type=int, default=6)
    p.add_argument("--outstanding", type=int, default=2)
    p.add_argument("--pfc-incast", action="store_true",
                   help="run the congested legs in lossless PFC mode")
    p.set_defaults(fn=cmd_incast)

    p = sub.add_parser(
        "profile",
        help="run any figure with the cost observatory on "
             "(profile --flame f.folded fig2a --qps 22 704)")
    p.add_argument("--flame", metavar="FILE", default=None,
                   help="write the host-time flamegraph (folded stacks)")
    p.add_argument("--census", metavar="FILE", default=None,
                   help="write the full cost-observatory JSON report")
    p.add_argument("--no-occupancy", action="store_true",
                   help="skip the resource-occupancy tracker")
    p.add_argument("rest", nargs=argparse.REMAINDER, metavar="FIGURE ...",
                   help="figure subcommand plus its own arguments, "
                        "passed through verbatim (fig2a --qps 22 704)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "explain",
        help="detect anomalies and explain them via attribution diffs "
             "(explain fig2a, explain run:4, explain run:latest)")
    p.add_argument("target",
                   help="a live figure (fig2a) or a stored run reference "
                        "(run:N, run:-N, run:latest)")
    p.add_argument("--qps", type=int, nargs="+",
                   default=[22, 176, 704, 2816],
                   help="fig2a sweep points for the live mode")
    p.add_argument("--clients", type=int, default=22)
    p.add_argument("--json", dest="explain_json", metavar="FILE",
                   default=None,
                   help="also write the anomaly + explanation report "
                        "as JSON")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="run-store directory for stored references "
                        "(default: benchmarks/runstore, or "
                        "REPRO_RUNSTORE_DIR)")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("bench-compare",
                       help="compare BENCH_*.json scorecards against "
                            "committed baselines (exit 1 on regression)")
    p.add_argument("--baseline", default=DEFAULT_BASELINE_DIR,
                   help="baseline scorecard directory "
                        "(default: benchmarks/baselines)")
    p.add_argument("--current", required=True,
                   help="directory of freshly generated scorecards")
    p.add_argument("--figures", nargs="+", default=None,
                   help="restrict the comparison to these figures")
    p.set_defaults(fn=cmd_bench_compare)

    p = sub.add_parser(
        "search",
        help="adversarial scenario search: hunt workload/config points "
             "that maximize an anomaly objective (docs/search.md)")
    p.add_argument("--budget", type=int, default=24, metavar="N",
                   help="unique candidate evaluations (default 24)")
    p.add_argument("--seed", type=int, default=7,
                   help="root seed; the leaderboard is byte-identical "
                        "for a fixed (seed, budget, objective) at any "
                        "--jobs (default 7)")
    p.add_argument("--objective", default="tail_ratio",
                   help="objective spec: %s; attribution_shift takes an "
                        "optional :resource arg (default tail_ratio)"
                        % ", ".join(sorted(OBJECTIVES)))
    p.add_argument("--warmup", type=int, default=0, metavar="N",
                   help="random candidates before the climb "
                        "(default: a third of the budget)")
    p.add_argument("--elites", type=int, default=4, metavar="N",
                   help="frontier slots mutated per generation")
    p.add_argument("--top", type=int, default=10, metavar="K",
                   help="leaderboard rows to print (default 10)")
    p.add_argument("--explain-top", type=int, default=None, metavar="K",
                   help="entries to re-run traced and explain "
                        "(default: top 3)")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="write the full result + explanations as JSON")
    p.add_argument("--export-scenario", metavar="NAME[:RANK]", default=None,
                   help="freeze the RANK-th candidate (default 1) as a "
                        "BENCH_search_<NAME>.json scorecard in the "
                        "--scorecard dir (default .)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="run-store directory for the search-history "
                        "record (default: benchmarks/runstore)")
    p.add_argument("--no-record", action="store_true",
                   help="skip recording the search into run history")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("runs", help="queryable run history: list / show "
                                    "/ diff / record / query")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="run-store directory (default: "
                        "benchmarks/runstore, or REPRO_RUNSTORE_DIR)")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    rp = runs_sub.add_parser("list", help="list recorded runs")
    rp.set_defaults(fn=cmd_runs_list)

    rp = runs_sub.add_parser("show", help="print one run's scorecards")
    rp.add_argument("ref", help="run id (e.g. 4, run:4, run:-1, "
                                "run:latest)")
    rp.set_defaults(fn=cmd_runs_show)

    rp = runs_sub.add_parser(
        "diff", help="compare run B against run A's tolerances and "
                     "anomaly sets (exit 1 when B regresses)")
    rp.add_argument("a", help="baseline run id (run:N, run:-N, "
                              "run:latest)")
    rp.add_argument("b", help="candidate run id")
    rp.set_defaults(fn=cmd_runs_diff)

    rp = runs_sub.add_parser(
        "record", help="append a directory of BENCH_*.json scorecards "
                       "to the run history")
    rp.add_argument("dir", help="scorecard directory to record")
    rp.add_argument("--label", default="",
                    help="free-form label for the run")
    rp.set_defaults(fn=cmd_runs_record)

    rp = runs_sub.add_parser(
        "query", help="filter runs: label=nightly figure=fig2a "
                      "fig2a.peak_mops>40 ...")
    rp.add_argument("exprs", nargs="+", metavar="EXPR")
    rp.set_defaults(fn=cmd_runs_query)

    p = sub.add_parser("list", help="list available experiments")
    p.set_defaults(fn=lambda args: print("\n".join(
        sorted(c for c in sub.choices if c != "list"))))
    return parser


def main(argv: List[str] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    # The fabric modes stay environment-driven: config.py resolves them
    # wherever a cluster is built, including in sweep workers.
    if args.congestion:
        os.environ[CONGESTION_ENV] = "1"
    if args.pfc:
        os.environ[PFC_ENV] = "1"
    if args.fidelity:
        os.environ[FIDELITY_ENV] = args.fidelity
    profile = bool(args.profile or args.flame or args.profile_json)
    spec = RunSpec.from_env(scale=args.scale, audit=args.audit or None,
                            profile=profile or None,
                            occupancy=args.occupancy or None, jobs=args.jobs)
    return _dispatch(args, spec)


def _dispatch(args, spec: RunSpec) -> int:
    """Run the parsed command under ``spec`` and write its exports."""
    args.spec = spec
    args.collected = {"slo": {}, "profile": {}, "host": {}}
    # Spans must accumulate in-process (forces sweeps serial); a
    # metrics-only run can keep --jobs parallelism because sketches and
    # counters merge exactly across workers.
    wants_spans = bool(args.trace or args.breakdown or args.attribution
                       or args.attribution_json or args.critical_path)
    observing = wants_spans or bool(args.metrics)
    telemetry = (enable(Telemetry(wants_spans=wants_spans))
                 if observing else None)
    if spec.faults:
        print("fault injection active: %s" % ", ".join(spec.faults))
    try:
        rc = args.fn(args) or 0
    finally:
        disable()
    if getattr(args, "slo_timeline", None):
        blocks = args.collected["slo"]
        with open(args.slo_timeline, "w") as fh:
            json.dump(blocks, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote SLO timelines: %s (%d runs)"
              % (args.slo_timeline, len(blocks)))
    if args.collected["profile"]:
        _emit_profile(args)
    if telemetry is not None:
        if args.breakdown:
            print()
            print(format_breakdown(telemetry.breakdown(),
                                   title="Latency breakdown (all spans)"))
        if args.attribution or args.attribution_json:
            _emit_attribution(args, telemetry)
        if args.critical_path:
            folded = folded_stacks(telemetry.critical_paths())
            if args.critical_path == "-":
                sys.stdout.write(folded)
            else:
                with open(args.critical_path, "w") as fh:
                    fh.write(folded)
                print("wrote folded stacks: %s (%d frames)"
                      % (args.critical_path, len(folded.splitlines())))
        if args.trace:
            write_chrome_trace(telemetry.spans, args.trace)
            print("wrote Chrome trace: %s (%d spans)"
                  % (args.trace, len(telemetry.spans.spans)))
        if args.metrics:
            text = (telemetry.registry.to_csv()
                    if args.metrics.endswith(".csv")
                    else telemetry.registry.to_json())
            with open(args.metrics, "w") as fh:
                fh.write(text)
            print("wrote metrics snapshot: %s" % args.metrics)
    return rc


if __name__ == "__main__":
    sys.exit(main())
