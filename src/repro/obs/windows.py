"""Virtual-time-windowed SLO tracking.

End-of-run aggregates hide trajectories: a run whose p99 is fine for
90% of the window and collapses in the last tenth reports the same
single number as a uniformly mediocre one.  A :class:`SloTimeline`
splits the measurement window into fixed-width *virtual-time* windows
and keeps, per window:

* a mergeable :class:`repro.obs.sketch.QuantileSketch` of completion
  latencies → per-window p50/p99/p999,
* the completed-op count → per-window goodput (Mops),
* deltas of registered cumulative *counter sources* (ECN marks, PFC
  pauses, switch drops, ...) sampled at window rollover.

Windows advance with the observations themselves — no simulator events
are scheduled, no RNG is touched, so attaching a timeline never changes
a run's results (the serial-vs-parallel byte-identity contract keeps
holding).  Counter sources are sampled when the first observation of a
later window arrives (and once more at :meth:`SloTimeline.finish`); a
delta spanning several silent windows is attributed to the last closed
window, which is exact whenever ops complete every window and
conservative otherwise.

Thresholds turn timelines into *SLO violation events*: every window
whose p50/p99/p999 exceeds its bound — or whose goodput falls below the
floor — emits an event carrying the window's virtual timestamps.  The
window count and thresholds are run options (the ``slo_*`` fields of
:class:`repro.harness.lifecycle.RunSpec`, settable through the
``REPRO_SLO_*`` variables), so CI and long soak runs can arm them
without threading parameters.

Every figure runner attaches a timeline to its
:class:`repro.harness.metrics.Recorder`; the report rides on
:class:`repro.harness.metrics.RunResult` as plain JSON-safe data, lands
in scorecard ``meta["slo"]`` blocks, and exports via the CLI's
``--slo-timeline FILE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .sketch import QuantileSketch

__all__ = [
    "SloThresholds",
    "SloTimeline",
    "attach_switch_sources",
]

#: Default number of windows a measurement window is split into.
DEFAULT_WINDOWS = 8


@dataclass
class SloThresholds:
    """Per-window SLO bounds; ``None`` disarms a bound."""

    p50_us: Optional[float] = None
    p99_us: Optional[float] = None
    p999_us: Optional[float] = None
    #: Per-window goodput floor in Mops; windows below it violate.
    min_goodput_mops: Optional[float] = None

    @property
    def armed(self) -> bool:
        """True when at least one bound is set."""
        return any(v is not None for v in (
            self.p50_us, self.p99_us, self.p999_us, self.min_goodput_mops))

    def to_dict(self) -> Dict[str, Optional[float]]:
        """JSON-safe form (only used when armed)."""
        return {"p50_us": self.p50_us, "p99_us": self.p99_us,
                "p999_us": self.p999_us,
                "min_goodput_mops": self.min_goodput_mops}


class _Window:
    """One window's accumulating state."""

    __slots__ = ("ops", "sketch", "counters")

    def __init__(self):
        self.ops = 0
        self.sketch: Optional[QuantileSketch] = None
        self.counters: Dict[str, float] = {}


class SloTimeline:
    """Windowed latency/goodput/counter tracking over [t0, t1)."""

    def __init__(self, t0: float, t1: float,
                 n_windows: Optional[int] = None,
                 thresholds: Optional[SloThresholds] = None,
                 relative_accuracy: float = 0.01):
        if t1 <= t0:
            raise ValueError("empty SLO window span")
        self.t0 = t0
        self.t1 = t1
        self.n_windows = n_windows or DEFAULT_WINDOWS
        self.window_ns = (t1 - t0) / self.n_windows
        self.thresholds = (thresholds if thresholds is not None
                           else SloThresholds())
        self.relative_accuracy = relative_accuracy
        self._windows: Dict[int, _Window] = {}
        self._sources: Dict[str, Callable[[], float]] = {}
        self._last_sample: Dict[str, float] = {}
        self._cursor = 0
        self._finished = False

    # -- wiring ---------------------------------------------------------

    def add_source(self, name: str, fn: Callable[[], float]) -> None:
        """Register a cumulative counter callable; per-window deltas are
        recorded at rollover.  Must be added before the run starts."""
        self._sources[name] = fn
        self._last_sample[name] = float(fn())

    # -- recording ------------------------------------------------------

    def _window(self, idx: int) -> _Window:
        win = self._windows.get(idx)
        if win is None:
            win = self._windows[idx] = _Window()
        return win

    def _sample_sources(self, into_idx: int) -> None:
        """Record each source's delta since the last sample into window
        ``into_idx``."""
        if not self._sources:
            return
        win = self._window(into_idx)
        for name, fn in self._sources.items():
            now_val = float(fn())
            delta = now_val - self._last_sample[name]
            self._last_sample[name] = now_val
            win.counters[name] = win.counters.get(name, 0.0) + delta

    def _advance(self, idx: int) -> None:
        """Close windows behind ``idx``; counter deltas land in the last
        closed window."""
        if idx > self._cursor:
            self._sample_sources(idx - 1)
            self._cursor = idx

    def observe(self, now: float, latency_ns: float) -> None:
        """Record one completed op at virtual time ``now`` with the
        given latency.  Ops outside [t0, t1) are ignored."""
        if self._finished or not (self.t0 <= now < self.t1):
            return
        idx = int((now - self.t0) / self.window_ns)
        if idx >= self.n_windows:  # float edge at t1
            idx = self.n_windows - 1
        self._advance(idx)
        win = self._window(idx)
        win.ops += 1
        if win.sketch is None:
            win.sketch = QuantileSketch(self.relative_accuracy)
        win.sketch.observe(latency_ns)

    def finish(self) -> None:
        """Close out the timeline (samples sources one final time into
        the last window).  Idempotent."""
        if self._finished:
            return
        self._sample_sources(self.n_windows - 1)
        self._finished = True

    # -- reporting ------------------------------------------------------

    def _violations(self, rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Threshold sweep over the computed window rows."""
        th = self.thresholds
        if not th.armed:
            return []
        events: List[Dict[str, Any]] = []

        def emit(row, metric, value, bound):
            events.append({
                "window": row["window"], "t0_ns": row["t0_ns"],
                "t1_ns": row["t1_ns"], "metric": metric,
                "value": value, "threshold": bound,
            })

        for row in rows:
            for metric, bound in (("p50_us", th.p50_us),
                                  ("p99_us", th.p99_us),
                                  ("p999_us", th.p999_us)):
                value = row[metric]
                if bound is not None and value is not None and value > bound:
                    emit(row, metric, value, bound)
            if (th.min_goodput_mops is not None
                    and row["goodput_mops"] < th.min_goodput_mops):
                emit(row, "goodput_mops", row["goodput_mops"],
                     th.min_goodput_mops)
        return events

    def report(self) -> Dict[str, Any]:
        """The timeline as plain JSON-safe data (finishes first).

        Returns ``{"window_ns", "t0_ns", "t1_ns", "windows": [...],
        "violations": [...]}`` (+ ``"thresholds"`` when armed); one row
        per window with ops, goodput_mops, p50/p99/p999_us (None when
        the window saw no completions) and per-window counter deltas.
        """
        self.finish()
        rows: List[Dict[str, Any]] = []
        for idx in range(self.n_windows):
            win = self._windows.get(idx)
            ops = win.ops if win else 0
            row: Dict[str, Any] = {
                "window": idx,
                "t0_ns": self.t0 + idx * self.window_ns,
                "t1_ns": self.t0 + (idx + 1) * self.window_ns,
                "ops": ops,
                "goodput_mops": round(ops / self.window_ns * 1e3, 6),
            }
            for key, p in (("p50_us", 50.0), ("p99_us", 99.0),
                           ("p999_us", 99.9)):
                row[key] = (round(win.sketch.percentile(p) / 1e3, 4)
                            if win is not None and win.sketch is not None
                            else None)
            if win is not None and win.counters:
                row["counters"] = {k: win.counters[k]
                                   for k in sorted(win.counters)}
            rows.append(row)
        out: Dict[str, Any] = {
            "window_ns": self.window_ns,
            "t0_ns": self.t0,
            "t1_ns": self.t1,
            "windows": rows,
            "violations": self._violations(rows),
        }
        if self.thresholds.armed:
            out["thresholds"] = self.thresholds.to_dict()
        return out


def attach_switch_sources(timeline: SloTimeline, fabric) -> SloTimeline:
    """Wire the congestion switch's cumulative counters (ECN marks, PFC
    pause events, drops) as per-window sources when the fabric runs the
    switched congestion model; a no-op on the contention-free fabric.
    Returns the timeline for chaining."""
    switch = getattr(fabric, "switch", None)
    if switch is not None:
        timeline.add_source("ecn_marks", lambda: switch.total_ecn_marks)
        timeline.add_source("pfc_pauses", lambda: switch.total_pause_events)
        timeline.add_source("switch_drops", lambda: switch.total_drops)
    return timeline


def attach_fidelity_sources(timeline: SloTimeline, fabric) -> SloTimeline:
    """Wire the hybrid fidelity controller's transition counters as
    per-window sources, so demotion storms show up on the same timeline
    (and in anomaly changepoints) as the congestion signals that caused
    them; a no-op in pure packet/fluid modes.  Returns the timeline for
    chaining."""
    controller = getattr(fabric, "fidelity_controller", None)
    if controller is not None:
        timeline.add_source("fidelity_demotions", lambda: controller.demotions)
        timeline.add_source("fidelity_promotions",
                            lambda: controller.promotions)
    return timeline
