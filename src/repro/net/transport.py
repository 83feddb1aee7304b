"""Pluggable transport models for :class:`repro.net.fabric.Fabric`.

``Fabric.transfer`` owns the message-level bookkeeping (metrics, the
in-flight occupancy slot, delivered/dropped ledgers live on the fabric)
and delegates the actual time evolution of one message to a
:class:`TransportModel`:

* :class:`PacketModel` — the calibrated stepped pipeline the figure
  baselines were built against: tx_process → loss gauntlet →
  ``switch.traverse`` → propagation → rx_process, each stage a real
  event (or several).  This is the default and is byte-identical to the
  pre-refactor inlined code.
* :class:`repro.net.flow.FluidModel` — the analytic fast path: the same
  ledgers and counters, but an uncontended transfer completes in O(1)
  dispatched events.

The fabric picks one model at construction and every transfer uses it.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, TYPE_CHECKING

from ..obs.span import Span
from ..sim import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fabric import Fabric, Node

__all__ = ["TransportModel", "PacketModel"]


class TransportModel:
    """One way of advancing a message through the fabric.

    Subclasses implement :meth:`pipeline`, a process that moves
    ``nbytes`` from ``src`` to ``dst`` and returns True when delivered,
    False when dropped — exactly the contract of ``Fabric.transfer``,
    which handles everything model-independent before delegating here.
    """

    def __init__(self, fabric: "Fabric"):
        self.fabric = fabric

    def pipeline(
        self,
        src: "Node",
        dst: "Node",
        nbytes: int,
        wire_bytes: int,
        n_packets: int,
        src_qpn: int,
        dst_qpn: int,
        rkeys: Iterable[int],
        reliable: bool,
        jitter_ns: float,
        span: Optional[Span],
    ) -> Generator[Event, None, bool]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__


class PacketModel(TransportModel):
    """The stepped per-message pipeline (the calibrated default)."""

    def pipeline(
        self,
        src: "Node",
        dst: "Node",
        nbytes: int,
        wire_bytes: int,
        n_packets: int,
        src_qpn: int,
        dst_qpn: int,
        rkeys: Iterable[int],
        reliable: bool,
        jitter_ns: float,
        span: Optional[Span],
    ) -> Generator[Event, None, bool]:
        fab = self.fabric
        sim = fab.sim
        yield from src.rnic.tx_process(nbytes, src_qpn, rkeys, span=span)
        delay = fab.cfg.propagation_ns + src.rnic.cfg.base_latency_ns
        if jitter_ns > 0:
            delay += fab.rng.random() * jitter_ns
        if fab.loss_prob > 0:
            # Loss is per packet: a multi-MTU message runs the gauntlet
            # once per MTU, so large transfers are proportionally more
            # exposed.  Any lost packet kills an unreliable message; RC
            # retransmits each lost packet individually.
            lost = sum(1 for _ in range(n_packets)
                       if fab.rng.random() < fab.loss_prob)
            if lost:
                if not reliable:
                    fab.messages_dropped += 1
                    if fab._obs:
                        fab._m_drops.inc()
                    return False
                # RNIC-level retransmissions: invisible to software.
                delay += fab.retransmit_ns * lost
                if fab._obs:
                    fab._m_retransmits.inc(lost)
        marked = False
        if fab.switch is not None:
            while True:
                accepted, marked = yield from fab.switch.traverse(
                    src.name, dst.name, wire_bytes, span=span)
                if accepted:
                    break
                if not reliable:
                    fab.messages_dropped += 1
                    if fab._obs:
                        fab._m_drops.inc()
                    return False
                # Tail drop on RC: hardware go-back-N resubmits the
                # message after the retransmission timeout.
                if fab._obs:
                    fab._m_retransmits.inc()
                yield sim.timeout(fab.retransmit_ns)
        if span is not None:
            span.add_phase("propagation", sim.now, sim.now + delay)
            span.wait("propagation", sim.now, sim.now + delay)
        yield sim.timeout(delay)
        yield from dst.rnic.rx_process(nbytes, dst_qpn, rkeys, span=span)
        fab.messages_delivered += 1
        if marked and reliable and fab.dcqcn_active:
            # The receiver's CNP generator notifies the marked flow.
            sim.spawn(fab._deliver_cnp(src.name, src_qpn), name="cnp")
        return True
