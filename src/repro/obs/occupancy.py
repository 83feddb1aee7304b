"""Resource occupancy timelines: per-window busy fractions and depths.

End-to-end latency says a run got slow; occupancy says *which resource*
was saturated while it did (the Collie lesson — anomaly hunting needs
per-resource signals).  An :class:`OccupancyTracker` keeps, for every
registered series, a per-virtual-time-window accumulation over the same
window grid as :class:`repro.obs.windows.SloTimeline` — so occupancy
heatmaps, census heatmaps, and SLO timelines all share columns.

Three series kinds cover every resource in the model:

* ``level`` — an integer level that steps up and down (inflight DMA
  reads, outstanding fabric transfers, CQ depth, credits in use, active
  QPs).  The tracker integrates level·dt into each window: *mean* is
  time-weighted average depth, *peak* the high-water mark, and —
  when the series has a capacity — *busy_frac* is mean/capacity.
* ``busy`` — explicit busy intervals for serially-reused resources
  (switch egress ports): *busy_frac* is the fraction of the window the
  resource was transmitting.
* ``sample`` — point samples (queue depth in bytes at enqueue): *mean*
  and *peak* over the window's samples.

The tracker is passive: components push transitions into it from their
existing code paths, gated by a cached ``self._occ`` reference exactly
like the ``self._obs`` metrics gating — off means one ``is None`` test
per call site, and **nothing** here schedules events or touches RNG, so
enabling occupancy never changes simulation results.

Enable with the run spec's ``occupancy`` option (on by default when
profiling); :func:`repro.harness.lifecycle.run_lifecycle` installs the tracker on ``sim.occupancy``
*before* the cluster is built (components cache the reference at
construction, like telemetry).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .windows import DEFAULT_WINDOWS

__all__ = [
    "OccupancyTracker",
]

class _Series:
    """One resource's accumulating per-window state."""

    __slots__ = ("kind", "capacity", "level", "since", "area", "peak",
                 "sum", "count")

    def __init__(self, kind: str, n_windows: int, t0: float,
                 capacity: Optional[float]):
        self.kind = kind
        self.capacity = capacity
        self.level = 0.0
        self.since = t0
        #: integrated level·dt (ns) per window (``level``/``busy``).
        self.area = [0.0] * n_windows
        #: high-water mark per window.
        self.peak = [0.0] * n_windows
        #: point-sample accumulators (``sample`` kind only).
        self.sum = [0.0] * n_windows
        self.count = [0] * n_windows


class OccupancyTracker:
    """Per-window occupancy over the measurement span ``[t0, t1)``.

    Activity outside the span is clipped away — warmup and drain do not
    pollute the heatmap.
    """

    def __init__(self, t0: float, t1: float,
                 n_windows: Optional[int] = None):
        if t1 <= t0:
            raise ValueError("empty occupancy span")
        self.t0 = t0
        self.t1 = t1
        self.n_windows = n_windows or DEFAULT_WINDOWS
        self.window_ns = (t1 - t0) / self.n_windows
        self._series: Dict[str, _Series] = {}
        self._finished = False

    # -- series management ----------------------------------------------

    def _get(self, name: str, kind: str,
             capacity: Optional[float]) -> _Series:
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = _Series(kind, self.n_windows,
                                             self.t0, capacity)
        elif capacity is not None and s.capacity is None:
            s.capacity = capacity
        return s

    def _window_of(self, t: float) -> int:
        idx = int((t - self.t0) / self.window_ns)
        if idx < 0:
            return 0
        if idx >= self.n_windows:
            return self.n_windows - 1
        return idx

    def _spread(self, s: _Series, a: float, b: float,
                value: float) -> None:
        """Integrate ``value`` over [a, b) clipped to the span, into the
        series' area bins; bump peaks for every covered window."""
        a = max(a, self.t0)
        b = min(b, self.t1)
        if b <= a:
            return
        i0 = self._window_of(a)
        i1 = self._window_of(b) if b < self.t1 else self.n_windows - 1
        area = s.area
        peak = s.peak
        for i in range(i0, i1 + 1):
            w_start = self.t0 + i * self.window_ns
            w_end = w_start + self.window_ns
            overlap = min(b, w_end) - max(a, w_start)
            if overlap <= 0:
                continue
            area[i] += value * overlap
            if value > peak[i]:
                peak[i] = value

    def _close_level(self, s: _Series, now: float) -> None:
        """Integrate the current level up to ``now``."""
        if now > s.since:
            if s.level:
                self._spread(s, s.since, now, s.level)
            s.since = now

    # -- recording primitives (component hook API) ----------------------

    def add(self, name: str, now: float, delta: float,
            capacity: Optional[float] = None) -> None:
        """Step a level series by ``delta`` at virtual time ``now``."""
        s = self._get(name, "level", capacity)
        self._close_level(s, now)
        s.level += delta
        if self.t0 <= now < self.t1:
            idx = self._window_of(now)
            if s.level > s.peak[idx]:
                s.peak[idx] = s.level

    def set_level(self, name: str, now: float, level: float,
                  capacity: Optional[float] = None) -> None:
        """Set a level series to an absolute value at ``now``."""
        s = self._get(name, "level", capacity)
        self._close_level(s, now)
        s.level = float(level)
        if self.t0 <= now < self.t1:
            idx = self._window_of(now)
            if s.level > s.peak[idx]:
                s.peak[idx] = s.level

    def busy(self, name: str, start: float, end: float) -> None:
        """Record a busy interval [start, end) for a serial resource."""
        if end <= start:
            return
        s = self._get(name, "busy", 1.0)
        self._spread(s, start, end, 1.0)

    def sample(self, name: str, now: float, value: float,
               capacity: Optional[float] = None) -> None:
        """Record a point sample (e.g. queue depth at enqueue time)."""
        if not (self.t0 <= now < self.t1):
            return
        s = self._get(name, "sample", capacity)
        idx = self._window_of(now)
        s.sum[idx] += value
        s.count[idx] += 1
        if value > s.peak[idx]:
            s.peak[idx] = value

    # -- reporting ------------------------------------------------------

    def finish(self, now: float) -> None:
        """Close out level integration at end of run.  Idempotent."""
        if self._finished:
            return
        self._finished = True
        for s in self._series.values():
            if s.kind == "level":
                self._close_level(s, max(now, s.since))

    def report(self) -> Dict[str, Any]:
        """Heatmap-ready JSON: one row per series, per-window ``mean`` /
        ``peak`` / ``busy_frac`` columns sharing the SLO window grid."""
        rows: List[Dict[str, Any]] = []
        w = self.window_ns
        for name in sorted(self._series):
            s = self._series[name]
            if s.kind == "sample":
                mean = [round(s.sum[i] / s.count[i], 6) if s.count[i]
                        else None for i in range(self.n_windows)]
            else:
                mean = [round(s.area[i] / w, 6)
                        for i in range(self.n_windows)]
            row: Dict[str, Any] = {
                "name": name,
                "kind": s.kind,
                "capacity": s.capacity,
                "mean": mean,
                "peak": [round(p, 6) for p in s.peak],
            }
            if s.capacity:
                row["busy_frac"] = [
                    round(m / s.capacity, 6) if m is not None else None
                    for m in mean]
            rows.append(row)
        return {
            "t0_ns": self.t0,
            "t1_ns": self.t1,
            "window_ns": w,
            "n_windows": self.n_windows,
            "series": rows,
        }
