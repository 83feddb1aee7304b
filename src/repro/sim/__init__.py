"""Discrete-event simulation kernel (events, processes, resources, RNG)."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .rand import HotColdGenerator, Streams, ZipfGenerator, percentile, summarize_latencies
from .resources import Resource, SpinLock, Store, TokenBucket, TrackedStore

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "HotColdGenerator",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "SpinLock",
    "Store",
    "Streams",
    "Timeout",
    "TokenBucket",
    "TrackedStore",
    "ZipfGenerator",
    "percentile",
    "summarize_latencies",
]
