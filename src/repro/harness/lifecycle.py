"""One run configuration and one run lifecycle for every figure runner.

A :class:`RunSpec` is the frozen set of *run options* — how long to
measure, what to audit and profile, which SLO windows and thresholds to
arm, which faults to inject, how many sweep workers to use — plus the
fabric modes (congestion, PFC, transport model) the run resolved to.
:meth:`RunSpec.from_env` is the only reader of the ``REPRO_*`` run
variables; the CLI resolves one spec per command (flags override the
environment) and carries it to every sweep point, so worker processes
never consult the ambient environment for run options.  The table of
options, flags and variables is in ``docs/performance.md``.

:func:`run_lifecycle` is the shared setup and teardown of one
simulation.  Every runner follows the same shape::

    with run_lifecycle("flock", cfg.warmup_ns, cfg.measure_ns,
                       spec, telemetry) as life:
        servers, clients, fabric = build_cluster(life.sim, ...)
        ...                               # spawn the workload
        life.run_window(recorder, fabric)
        return life.finish(recorder.result(...))

The lifecycle builds the :class:`~repro.sim.Simulator`, installs
telemetry, the audit registry and the cost observatory *before* any
component exists (components cache their instruments at construction),
scales the warmup/measure window, injects the spec's faults for the
duration of the block, drives the run on the fast path or the profiled
loop, and ``finish`` hangs telemetry, the profile report, the audit
report and the spec on the result.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from ..config import (CONGESTION_ENV, FIDELITY_ENV, PFC_ENV,
                      CongestionConfig, FidelityConfig, parse_bool)
from ..obs import AuditError, Registry, current_telemetry, faults, run_audit
from ..obs.occupancy import OccupancyTracker
from ..obs.simprof import SimProfile
from ..obs.windows import (DEFAULT_WINDOWS, SloThresholds, SloTimeline,
                           attach_switch_sources)
from ..sim import Simulator

__all__ = ["RunLifecycle", "RunSpec", "run_lifecycle"]

#: Windows shorter than this fraction of a runner's nominal durations
#: stop measuring anything meaningful; smaller scales are clamped.
MIN_SCALE = 0.1


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _parse_faults(text: str) -> Tuple[str, ...]:
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    unknown = [n for n in names if n not in faults.FAULT_NAMES]
    if unknown:
        raise ValueError(", ".join(unknown))
    return names


@dataclass(frozen=True)
class RunSpec:
    """The resolved run options of one command or test."""

    #: Warmup/measure window multiplier (clamped to ``MIN_SCALE``).
    scale: float = 1.0
    #: Run the end-of-run invariant auditors; a violation raises.
    audit: bool = False
    #: Drive runs through the host-time profiler and event census.
    profile: bool = False
    #: Track per-window resource occupancy.
    occupancy: bool = False
    #: Windows per measurement window (SLO timeline, census, occupancy).
    slo_windows: int = DEFAULT_WINDOWS
    #: Optional per-window SLO bounds; None disarms a bound.
    slo_p50_us: Optional[float] = None
    slo_p99_us: Optional[float] = None
    slo_p999_us: Optional[float] = None
    slo_min_mops: Optional[float] = None
    #: Fault sites (:mod:`repro.obs.faults`) active during every run.
    faults: Tuple[str, ...] = ()
    #: Worker processes for sweeps (1 = serial).
    jobs: int = 1
    #: Fabric modes the run resolved to.  ``config.py`` applies them to
    #: the cluster; the spec records them so run artifacts say which
    #: model produced them.
    congestion: bool = False
    pfc: bool = False
    fidelity: str = "packet"

    #: Fields that make two runs comparable, mapped to the scorecard
    #: meta key they are stamped under and the value an absent key
    #: stands for.  Scale and fidelity are stamped on every scorecard
    #: (an absent key predates stamping and compares with anything);
    #: the switch modes are stamped only when on, so clean runs keep
    #: their meta and fingerprints.
    COMPARABLE = {
        "scale": ("bench_scale", None),
        "fidelity": ("fidelity", None),
        "congestion": ("congestion", False),
        "pfc": ("pfc", False),
    }
    #: Fields that change what a run observes or how it is executed,
    #: never its results: runs differing only here stay diffable (CI
    #: diffs a fault-injected run against a clean one).
    OBSERVATION_ONLY = ("audit", "profile", "occupancy", "slo_windows",
                        "slo_p50_us", "slo_p99_us", "slo_p999_us",
                        "slo_min_mops", "faults", "jobs")
    #: Field -> (CLI flag or None, environment variable).
    OPTIONS = {
        "scale": ("--scale", "REPRO_BENCH_SCALE"),
        "audit": ("--audit", "REPRO_AUDIT"),
        "profile": ("--profile", "REPRO_PROFILE"),
        "occupancy": ("--occupancy", "REPRO_OCCUPANCY"),
        "slo_windows": (None, "REPRO_SLO_WINDOWS"),
        "slo_p50_us": (None, "REPRO_SLO_P50_US"),
        "slo_p99_us": (None, "REPRO_SLO_P99_US"),
        "slo_p999_us": (None, "REPRO_SLO_P999_US"),
        "slo_min_mops": (None, "REPRO_SLO_MIN_MOPS"),
        "faults": (None, "REPRO_FAULTS"),
        "jobs": ("--jobs", "REPRO_JOBS"),
        "congestion": ("--congestion", CONGESTION_ENV),
        "pfc": ("--pfc", PFC_ENV),
        "fidelity": (None, FIDELITY_ENV),
    }

    def __post_init__(self):
        object.__setattr__(self, "scale", max(MIN_SCALE, float(self.scale)))
        object.__setattr__(self, "jobs", max(1, int(self.jobs)))
        object.__setattr__(self, "slo_windows", max(1, int(self.slo_windows)))
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def from_env(cls, **overrides) -> "RunSpec":
        """Resolve the run options: ``overrides`` (CLI flags; None means
        "not given") win over the ``REPRO_*`` variables, which win over
        the defaults.  A malformed value raises :class:`ValueError`
        naming its variable.  Occupancy follows profiling unless set
        explicitly; the fabric modes come from ``config.py``'s
        resolvers (the CLI exports its net flags before resolving)."""
        parsers = {"scale": _parse_finite, "audit": parse_bool,
                   "profile": parse_bool, "occupancy": parse_bool,
                   "slo_windows": int, "slo_p50_us": _parse_finite,
                   "slo_p99_us": _parse_finite, "slo_p999_us": _parse_finite,
                   "slo_min_mops": _parse_finite, "faults": _parse_faults,
                   "jobs": int}
        net = CongestionConfig().resolved()
        values = {"congestion": net.enabled, "pfc": net.pfc,
                  "fidelity": FidelityConfig().resolved().mode}
        for name, parse in parsers.items():
            var = cls.OPTIONS[name][1]
            raw = os.environ.get(var, "").strip()
            if not raw:
                continue
            try:
                values[name] = parse(raw)
            except ValueError:
                raise ValueError("%s=%r is not a valid %s setting"
                                 % (var, raw, name)) from None
        values.update((k, v) for k, v in overrides.items() if v is not None)
        values.setdefault("occupancy", values.get("profile", False))
        return cls(**values)

    @property
    def slo_thresholds(self) -> SloThresholds:
        """The per-window SLO bounds this spec arms."""
        return SloThresholds(p50_us=self.slo_p50_us, p99_us=self.slo_p99_us,
                             p999_us=self.slo_p999_us,
                             min_goodput_mops=self.slo_min_mops)

    def comparable_meta(self) -> Dict[str, object]:
        """The scorecard meta keys this spec stamps (see COMPARABLE)."""
        meta = {}
        for name, (key, absent) in self.COMPARABLE.items():
            value = getattr(self, name)
            if absent is None or value != absent:
                meta[key] = value
        return meta

    @classmethod
    def comparable_items(cls, meta: Dict[str, object]):
        """``(key, value)`` per comparable key of a scorecard's meta,
        with absent keys read as the value they stand for."""
        return [(key, meta.get(key, absent))
                for key, absent in cls.COMPARABLE.values()]

    @classmethod
    def fingerprint_row(cls, figure: str, meta: Dict[str, object]) -> list:
        """One scorecard's contribution to a run's config fingerprint:
        the figure, the always-stamped keys, then ``[key, value]`` for
        each switch mode that is on."""
        row = [figure]
        for key, absent in cls.COMPARABLE.values():
            value = meta.get(key, absent)
            if absent is None:
                row.append(value)
            elif value != absent:
                row.append([key, value])
        return row


class RunLifecycle:
    """Setup, run and teardown of one simulation (see module docs)."""

    def __init__(self, label: str, warmup_ns: float, measure_ns: float,
                 spec: Optional[RunSpec] = None, telemetry=None):
        self.spec = spec = spec if spec is not None else RunSpec.from_env()
        self.sim = sim = Simulator()
        tel = telemetry if telemetry is not None else current_telemetry()
        if tel is not None:
            tel.install(sim, label=label)
        self.telemetry = tel
        self._audit_registry = None
        if spec.audit:
            if getattr(sim.metrics, "enabled", False):
                # A registry that accumulated earlier runs is not
                # comparable to this sim's structural counters.
                if tel is None or len(getattr(tel, "runs", ())) <= 1:
                    self._audit_registry = sim.metrics
            else:
                sim.metrics = self._audit_registry = Registry()
        self.warmup = warmup_ns * spec.scale
        self.measure = measure_ns * spec.scale
        self.end = self.warmup + self.measure
        if spec.occupancy:
            sim.occupancy = OccupancyTracker(self.warmup, self.end,
                                             n_windows=spec.slo_windows)
        self.profile = (SimProfile(self.warmup, self.end,
                                   n_windows=spec.slo_windows)
                        if spec.profile else None)
        self._injected = [name for name in spec.faults
                          if not faults.is_active(name)]
        for name in self._injected:
            faults.inject(name)

    def __enter__(self) -> "RunLifecycle":
        return self

    def __exit__(self, *exc) -> None:
        for name in self._injected:
            faults.clear(name)
        self._injected = []

    def timeline(self, fabric=None) -> SloTimeline:
        """An SLO timeline over the measurement window, with the
        fabric's switch counters as per-window sources."""
        timeline = SloTimeline(self.warmup, self.end,
                               n_windows=self.spec.slo_windows,
                               thresholds=self.spec.slo_thresholds)
        if fabric is not None:
            attach_switch_sources(timeline, fabric)
        return timeline

    def run(self, until: Optional[float] = None) -> None:
        """Drive the sim to ``until`` (default: the window's end) on
        the profiled loop when profiling, else on the fast path."""
        until = self.end if until is None else until
        if self.profile is not None:
            self.sim.run_profiled(self.profile, until=until)
        else:
            self.sim.run(until=until)

    def run_window(self, recorders: Union[object, Iterable[object]],
                   fabric=None) -> None:
        """Open the measurement window on each recorder, attach its SLO
        timeline, and run to the window's end.  The timelines are
        passive: results are unchanged by their presence."""
        if not isinstance(recorders, (list, tuple)):
            recorders = (recorders,)
        for recorder in recorders:
            recorder.open_window(self.warmup, self.end)
            recorder.attach_slo(self.timeline(fabric))
        self.run()

    def finish(self, result):
        """Attach telemetry, the observatory report, the spec and the
        audit report to ``result``; raises
        :class:`repro.obs.AuditError` on any audit violation."""
        sim = self.sim
        result.telemetry = self.telemetry
        result.spec = self.spec
        occ = sim.occupancy
        if occ is not None:
            occ.finish(sim.now)
        if self.profile is not None:
            self.profile.finish(sim)
            report = self.profile.report()
            if occ is not None:
                report["occupancy"] = occ.report()
            result.profile = report
        elif occ is not None:
            result.profile = {"occupancy": occ.report()}
        if self.spec.audit:
            result.audit_report = run_audit(sim, self._audit_registry)
            if not result.audit_report.ok:
                raise AuditError(result.audit_report)
        return result


def run_lifecycle(label: str, warmup_ns: float, measure_ns: float,
                  spec: Optional[RunSpec] = None,
                  telemetry=None) -> RunLifecycle:
    """The lifecycle of one run, used as a context manager.

    ``spec`` defaults to :meth:`RunSpec.from_env`; ``telemetry`` to the
    process-wide :func:`repro.obs.current_telemetry`.  The window is
    ``warmup_ns``/``measure_ns`` scaled by ``spec.scale``.
    """
    return RunLifecycle(label, warmup_ns, measure_ns, spec, telemetry)
