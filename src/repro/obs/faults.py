"""Test-only fault injection for auditor mutation tests.

An auditor that never fires is untested: to prove each invariant check
can actually catch the bug class it guards against, the test suite seeds
deliberate accounting bugs (drop a credit refill, leak a CQE,
double-count a cache hit) and asserts the matching auditor — and only
that auditor — reports a violation.

The hook is a module-level set of active fault names.  Instrumented
sites guard with ``if ACTIVE and "name" in ACTIVE`` so the production
path costs one truthiness test of an (almost always) empty set.  Faults
are only ever enabled deliberately: by tests, or by the run lifecycle
for the faults a run's spec names (``REPRO_FAULTS``, a comma-separated
list) — which CI uses to manufacture a known-bad run for the run-store
regression gate.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Set

__all__ = ["ACTIVE", "FAULT_NAMES", "clear", "inject", "injected",
           "is_active"]

#: Names of every fault site wired into the stack; ``inject`` rejects
#: unknown names so a typo cannot silently test nothing.
FAULT_NAMES = frozenset({
    # flock/credits.py: a grant arrives but the credits are never added.
    "credits.drop_refill",
    # verbs/qp.py: a signaled send completion is counted but never
    # DMA-ed into the CQ.
    "verbs.leak_cqe",
    # hw/rnic.py: a QP-cache hit increments the metrics counter twice.
    "rnic.double_count_hit",
    # harness/microbench.py: the echo handler cost steps up 25x halfway
    # through the measurement window — a manufactured latency
    # changepoint the anomaly detectors must catch (CI's known-bad run).
    "bench.step_handler_cost",
})

#: The currently active fault names (empty in production).
ACTIVE: Set[str] = set()


def inject(name: str) -> None:
    """Activate the fault ``name`` (must be a known fault site)."""
    if name not in FAULT_NAMES:
        raise ValueError("unknown fault %r (known: %s)"
                         % (name, ", ".join(sorted(FAULT_NAMES))))
    ACTIVE.add(name)


def clear(name: str = None) -> None:
    """Deactivate ``name``, or every fault when called without one."""
    if name is None:
        ACTIVE.clear()
    else:
        ACTIVE.discard(name)


def is_active(name: str) -> bool:
    """True when the fault ``name`` is currently injected."""
    return name in ACTIVE


@contextmanager
def injected(*names: str) -> Iterator[None]:
    """Context manager activating ``names`` for the enclosed block."""
    for name in names:
        inject(name)
    try:
        yield
    finally:
        for name in names:
            ACTIVE.discard(name)
