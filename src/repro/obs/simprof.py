"""Simulation cost observatory: event census + host-time profiler.

The ROADMAP's scaling items (hybrid-fidelity fabric above all) rest on a
claim about the *simulator's own* cost structure: that packet-level
fabric events dominate both event volume and host wall-clock.  This
module measures that claim instead of assuming it.

Two instruments share one bucketing scheme:

* **Event census** — every dispatched event is attributed to the
  component that owns its callback (``fabric``, ``switch``, ``rnic``,
  ``pcie``, ``cq``, ``credits``, ``flock``, ``verbs``, ``kernel``,
  ``app``, ``timers``) and a callback *kind* (``process`` for generator
  resumes, ``callback`` for plain event callbacks, ``timer`` for bare
  timeouts, ``idle`` for events that fire with no listeners).  Counts
  are kept per virtual-time window over the measurement span, riding
  the same windowing math as :class:`repro.obs.windows.SloTimeline`
  (including the run spec's ``slo_windows``), so census heatmaps line
  up column-for-column with SLO timelines and occupancy heatmaps.
* **Host-time profiler** — :meth:`repro.sim.core.Simulator.run_profiled`
  brackets every callback batch with ``perf_counter_ns`` and feeds the
  elapsed host nanoseconds into the same buckets, split by run phase
  (``warmup`` / ``measure`` / ``drain``).  Shares sum to 1 by
  construction; the folded-stack export feeds ``flamegraph.pl`` or
  speedscope directly.

Classification must not slow the loop down: a callback's owning
component is derived from its code object's filename and **memoized by
code object**, so steady state pays one dict hit per event.  Generator
resumes are special-cased — the interesting owner of a
:class:`~repro.sim.core.Process` resume is the *generator* being
resumed, not the kernel's ``_resume`` trampoline.

Everything here is opt-in (the run spec's ``profile`` option) and
touches neither virtual time nor RNG: a profiled run produces the exact
same simulation results as a plain one, just slower on the host.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .windows import DEFAULT_WINDOWS

__all__ = [
    "SimProfile",
    "component_bucket",
]

def component_bucket(filename: str) -> str:
    """Map a code object's filename to its owning component bucket.

    The path segments after the ``repro`` package root decide the
    bucket; anything outside the package (tests, workloads, user code)
    is ``app``.
    """
    parts = filename.replace("\\", "/").split("/")
    idx = None
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            idx = i
            break
    if idx is None:
        return "app"
    sub = parts[idx + 1:]
    if not sub:
        return "other"
    head = sub[0]
    leaf = sub[-1]
    if head == "net":
        if len(sub) > 1 and sub[1] == "congestion":
            return "switch"
        if leaf.startswith("flow") or leaf.startswith("fidelity"):
            return "flow"
        return "fabric"
    if head == "hw":
        return "pcie" if leaf.startswith("pcie") else "rnic"
    if head == "verbs":
        return "cq" if leaf.startswith("cq") else "verbs"
    if head == "flock":
        return "credits" if leaf.startswith("credits") else "flock"
    if head == "sim":
        return "kernel"
    return "app"


class SimProfile:
    """Accumulator fed by :meth:`Simulator.run_profiled`.

    One instance spans a whole run (warmup + measure + drain); the
    census windows cover the measurement span ``[t0, t1)`` only, while
    host-time and phase totals cover everything dispatched.
    """

    def __init__(self, t0: float, t1: float,
                 n_windows: Optional[int] = None):
        if t1 <= t0:
            raise ValueError("empty profile measurement span")
        self.t0 = t0
        self.t1 = t1
        self.n_windows = n_windows or DEFAULT_WINDOWS
        self.window_ns = (t1 - t0) / self.n_windows
        #: host ns per ``component;kind`` bucket.
        self.host_ns: Dict[str, int] = {}
        #: dispatched-event count per bucket (whole run).
        self.dispatched: Dict[str, int] = {}
        #: events left on the schedule at :meth:`finish` — scheduled but
        #: never dispatched (the run ended first).
        self.cancelled: Dict[str, int] = {}
        #: census: per measurement window, dispatch counts per bucket.
        self._census: Dict[int, Dict[str, int]] = {}
        self._phase_ns = {"warmup": 0, "measure": 0, "drain": 0}
        self._phase_events = {"warmup": 0, "measure": 0, "drain": 0}
        #: code object -> component bucket memo (the hot-path cache).
        self._code_bucket: Dict[Any, str] = {}
        self._finished = False

    # -- classification -------------------------------------------------

    def _bucket_of(self, code: Any) -> str:
        bucket = self._code_bucket.get(code)
        if bucket is None:
            bucket = component_bucket(code.co_filename)
            self._code_bucket[code] = bucket
        return bucket

    def classify(self, event: Any, callbacks: Optional[List[Any]]) -> str:
        """``component;kind`` bucket for one fired (or pending) event.

        Attribution follows the first callback — overwhelmingly the only
        one — because that is who the event wakes: a process resume is
        charged to the resumed generator's module, a plain callback to
        the function's module.  Class names are duck-typed to keep this
        module import-independent of the kernel.

        A process resume walks the generator's ``yield from`` chain to
        the *innermost* active frame: an app-spawned RPC blocked inside
        ``switch.traverse`` is switch cost, not app cost.  That is what
        makes "fabric-owned events" measurable — the datum the
        fluid-vs-packet bench gate compares.
        """
        if not callbacks:
            if type(event).__name__ == "Timeout":
                return "timers;timer"
            return "kernel;idle"
        cb = callbacks[0]
        owner = getattr(cb, "__self__", None)
        gen = getattr(owner, "gen", None)
        if gen is not None:
            sub = getattr(gen, "gi_yieldfrom", None)
            while sub is not None:
                if getattr(sub, "gi_code", None) is None:
                    break
                gen = sub
                sub = getattr(sub, "gi_yieldfrom", None)
            return self._bucket_of(gen.gi_code) + ";process"
        kind = "timer" if type(event).__name__ == "Timeout" else "callback"
        func = getattr(cb, "__func__", cb)
        code = getattr(func, "__code__", None)
        if code is None:
            return "other;" + kind
        return self._bucket_of(code) + ";" + kind

    # -- accounting (called from the instrumented loop) -----------------

    def account(self, event: Any, callbacks: Optional[List[Any]],
                dt_ns: int, now: float) -> None:
        """Charge one dispatched event: ``dt_ns`` host nanoseconds spent
        firing it at virtual time ``now``."""
        key = self.classify(event, callbacks)
        self.host_ns[key] = self.host_ns.get(key, 0) + dt_ns
        self.dispatched[key] = self.dispatched.get(key, 0) + 1
        if now < self.t0:
            phase = "warmup"
        elif now < self.t1:
            phase = "measure"
            idx = int((now - self.t0) / self.window_ns)
            if idx >= self.n_windows:  # float edge at t1
                idx = self.n_windows - 1
            win = self._census.get(idx)
            if win is None:
                win = self._census[idx] = {}
            win[key] = win.get(key, 0) + 1
        else:
            phase = "drain"
        self._phase_ns[phase] += dt_ns
        self._phase_events[phase] += 1

    def finish(self, sim: Any) -> None:
        """Census the schedule's leftovers as *cancelled* events.

        Called once after the profiled run: anything still sitting on
        the heap or the ready deque was scheduled but never dispatched.
        Idempotent.
        """
        if self._finished:
            return
        self._finished = True
        leftovers = [entry[2] for entry in sim._heap]
        leftovers.extend(sim._ready)
        for event in leftovers:
            key = self.classify(event, event.callbacks)
            self.cancelled[key] = self.cancelled.get(key, 0) + 1

    # -- reporting ------------------------------------------------------

    @property
    def total_host_ns(self) -> int:
        return sum(self.host_ns.values())

    @property
    def total_dispatched(self) -> int:
        return sum(self.dispatched.values())

    def dominant_component(self) -> Tuple[str, float]:
        """``(component, share)`` of the measurement-window census —
        the datum the hybrid-fidelity decision reads.  Falls back to
        whole-run dispatch counts when the measurement window saw no
        events."""
        by_comp: Dict[str, int] = {}
        for win in self._census.values():
            for key, n in win.items():
                comp = key.split(";", 1)[0]
                by_comp[comp] = by_comp.get(comp, 0) + n
        if not by_comp:
            for key, n in self.dispatched.items():
                comp = key.split(";", 1)[0]
                by_comp[comp] = by_comp.get(comp, 0) + n
        if not by_comp:
            return ("none", 0.0)
        total = sum(by_comp.values())
        comp = max(by_comp, key=lambda c: (by_comp[c], c))
        return (comp, by_comp[comp] / total)

    def folded(self) -> str:
        """Folded-stack export: ``sim;<component>;<kind> <host ns>``
        lines, via the same collapsed-stack renderer as
        :func:`repro.obs.causal.folded_stacks`."""
        from .causal import folded_lines
        weights = {"sim;" + key: float(ns)
                   for key, ns in self.host_ns.items()}
        return folded_lines(weights)

    def report(self) -> Dict[str, Any]:
        """The whole observatory as plain JSON-safe data.

        ``host.buckets[*].share`` sums to 1 (±1e-6) whenever any host
        time was recorded; census windows line up with the SLO
        timeline's."""
        total_ns = self.total_host_ns
        buckets = []
        for key in sorted(self.host_ns,
                          key=lambda k: (-self.host_ns[k], k)):
            ns = self.host_ns[key]
            comp, kind = key.split(";", 1)
            events = self.dispatched.get(key, 0)
            buckets.append({
                "component": comp,
                "kind": kind,
                "ns": ns,
                "share": (ns / total_ns) if total_ns else 0.0,
                "events": events,
                "ns_per_event": round(ns / events, 3) if events else 0.0,
            })
        phases = {}
        for name in ("warmup", "measure", "drain"):
            ns = self._phase_ns[name]
            events = self._phase_events[name]
            phases[name] = {
                "host_ns": ns,
                "events": events,
                "events_per_sec": round(events / (ns * 1e-9), 1) if ns else 0.0,
            }
        windows = []
        for idx in range(self.n_windows):
            win = self._census.get(idx, {})
            windows.append({
                "window": idx,
                "t0_ns": self.t0 + idx * self.window_ns,
                "t1_ns": self.t0 + (idx + 1) * self.window_ns,
                "events": sum(win.values()),
                "counts": {k: win[k] for k in sorted(win)},
            })
        scheduled = {}
        for key in set(self.dispatched) | set(self.cancelled):
            scheduled[key] = (self.dispatched.get(key, 0)
                              + self.cancelled.get(key, 0))
        dominant, dom_share = self.dominant_component()
        return {
            "t0_ns": self.t0,
            "t1_ns": self.t1,
            "window_ns": self.window_ns,
            "n_windows": self.n_windows,
            "host": {"total_ns": total_ns, "buckets": buckets},
            "phases": phases,
            "census": {
                "dispatched": self.total_dispatched,
                "cancelled": sum(self.cancelled.values()),
                "scheduled": sum(scheduled.values()),
                "by_bucket": {k: scheduled[k] for k in sorted(scheduled)},
                "dominant_component": dominant,
                "dominant_share": round(dom_share, 6),
                "windows": windows,
            },
        }
