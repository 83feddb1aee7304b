"""Measurement utilities shared by every experiment.

Closed-loop workers record per-op latency into a :class:`Recorder` that
only counts completions inside the measurement window (after warmup);
throughput is completed ops per virtual second.  Everything reports in
the paper's units: **Mops** and **µs**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from ..obs.anomaly import detect_run_anomalies
from ..sim import Simulator, percentile, summarize_latencies

__all__ = ["Recorder", "RunResult", "host_block"]


def host_block(sim: Simulator) -> Dict[str, float]:
    """Host-cost summary of a finished run: wall-clock seconds, events
    fired, and events per host second.

    Profiler-independent and cheap (two clock reads per run), so every
    :class:`RunResult` carries it and the runstore can query
    ``fig2a.events_per_sec`` drift across commits.  Kept out of
    ``extras`` on purpose: host timings differ between a serial and a
    parallel run of the same figure, and ``extras`` is part of the
    jobs-invariance fingerprint.
    """
    wall_s = max(perf_counter() - sim.wall_start, 1e-9)
    events = sim.events_processed
    return {
        "wall_s": round(wall_s, 4),
        "events": events,
        "events_per_sec": round(events / wall_s, 1),
    }


class Recorder:
    """Collects completions that fall inside [start, end) virtual time."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.window_start: Optional[float] = None
        self.window_end: Optional[float] = None
        self.ops = 0
        self.latencies_ns: List[float] = []
        self.total_ops = 0
        #: Optional :class:`repro.obs.windows.SloTimeline` fed by
        #: :meth:`record` (passive — never schedules events).
        self.slo_timeline = None

    def open_window(self, start: float, end: float) -> None:
        if end <= start:
            raise ValueError("empty measurement window")
        self.window_start = start
        self.window_end = end

    def attach_slo(self, timeline) -> None:
        """Attach a windowed SLO timeline; every measured completion is
        also observed by the timeline, and :meth:`result` embeds its
        report as ``RunResult.slo``."""
        self.slo_timeline = timeline

    def record(self, started_ns: float, extra: float = 0.0) -> None:
        """Record one completed op that began at ``started_ns``."""
        self.total_ops += 1
        now = self.sim.now
        if self.window_start is None or not (self.window_start <= now < self.window_end):
            return
        self.ops += 1
        latency = now - started_ns + extra
        self.latencies_ns.append(latency)
        if self.slo_timeline is not None:
            self.slo_timeline.observe(now, latency)

    def result(self, **extras) -> "RunResult":
        if self.window_start is None:
            raise RuntimeError("measurement window was never opened")
        duration = self.window_end - self.window_start
        slo = (self.slo_timeline.report()
               if self.slo_timeline is not None else None)
        return RunResult(ops=self.ops, duration_ns=duration,
                         latency=summarize_latencies(self.latencies_ns),
                         extras=dict(extras), slo=slo,
                         anomalies=detect_run_anomalies(
                             slo, label=str(extras.get("system", ""))),
                         host=host_block(self.sim))

    def cdf_us(self, points: int = 20):
        """Latency CDF as (percentile, µs) pairs — Figs. 7/8-style curves."""
        if points < 2:
            raise ValueError("need at least two CDF points")
        if not self.latencies_ns:
            return []
        ordered = sorted(self.latencies_ns)
        return [(p, percentile(ordered, p) / 1e3)
                for p in (i * 100.0 / (points - 1) for i in range(points))]


@dataclass
class RunResult:
    """One experiment data point."""

    ops: int
    duration_ns: float
    latency: Dict[str, float]
    extras: Dict[str, object] = field(default_factory=dict)
    #: The :class:`repro.obs.Telemetry` active during the run (None when
    #: observability was not enabled) — holds spans and metric values.
    telemetry: Optional[object] = field(default=None, repr=False)
    #: End-of-run :class:`repro.obs.AuditReport` (None unless the run's
    #: spec asked for an audit).
    audit_report: Optional[object] = field(default=None, repr=False)
    #: Windowed SLO timeline report (plain JSON-safe dict from
    #: :meth:`repro.obs.windows.SloTimeline.report`); None when no
    #: timeline was attached.  Unlike telemetry this survives the
    #: parallel executor's pickle boundary.
    slo: Optional[Dict[str, object]] = field(default=None, repr=False)
    #: Anomalies detected on the run's SLO timeline (plain dicts from
    #: :func:`repro.obs.anomaly.detect_run_anomalies`) — changepoints on
    #: per-window p99/goodput, counter bursts.  Empty when no timeline
    #: was attached or nothing fired.  Plain data: crosses the parallel
    #: executor's pickle boundary untouched, so the detected set is
    #: byte-identical for any ``--jobs`` count.
    anomalies: List[dict] = field(default_factory=list, repr=False)
    #: Host-cost block from :func:`host_block` — wall-clock seconds,
    #: events fired, events/sec.  Deliberately **not** part of the
    #: jobs-invariance fingerprint (host timings are machine- and
    #: scheduling-dependent); None only for hand-built results.
    host: Optional[Dict[str, float]] = field(default=None, repr=False)
    #: Cost-observatory report (plain dict from
    #: :meth:`repro.obs.simprof.SimProfile.report`, with the occupancy
    #: heatmap under ``"occupancy"`` when tracked); None unless the run
    #: was profiled or tracked occupancy.
    profile: Optional[Dict[str, object]] = field(default=None, repr=False)
    #: The :class:`repro.harness.lifecycle.RunSpec` the run executed
    #: under (None only for hand-built results); scorecards read the
    #: run's scale and fidelity from it.
    spec: Optional[object] = field(default=None, repr=False)

    @property
    def mops(self) -> float:
        """Throughput in million ops per (virtual) second."""
        if self.duration_ns <= 0:
            return 0.0
        return self.ops / self.duration_ns * 1e3

    @property
    def median_us(self) -> float:
        return self.latency["median"] / 1e3

    @property
    def p99_us(self) -> float:
        return self.latency["p99"] / 1e3

    @property
    def p999_us(self) -> float:
        # .get: legacy latency dicts predate the p999 summary key.
        return self.latency.get("p999", 0.0) / 1e3

    def row(self) -> Dict[str, float]:
        return {
            "mops": round(self.mops, 3),
            "median_us": round(self.median_us, 2),
            "p99_us": round(self.p99_us, 2),
            "p999_us": round(self.p999_us, 2),
            "ops": self.ops,
        }

    def breakdown(self, name: Optional[str] = "rpc") -> Dict[str, Dict[str, float]]:
        """Phase-level latency breakdown of the run's spans.

        Returns ``{phase: {count, total_ns, mean_ns, max_ns, share}}``
        (see :meth:`repro.obs.SpanLog.breakdown`); empty when the run was
        not traced.
        """
        if self.telemetry is None:
            return {}
        return self.telemetry.breakdown(name)

    def __repr__(self) -> str:
        return ("RunResult(mops=%.3f, median=%.2fus, p99=%.2fus, ops=%d)"
                % (self.mops, self.median_us, self.p99_us, self.ops))
