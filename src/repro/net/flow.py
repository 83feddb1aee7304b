"""Fluid (flow-level) transport model: O(1) events per transfer.

An uncontended message under :class:`repro.net.transport.PacketModel`
costs half a dozen or more dispatched events — token-bucket timeouts, a
TX-port acquire, the wire timeout, propagation, PCIe slot churn on cache
misses.  :class:`FluidModel` computes the same end-to-end latency
analytically — using the synchronous twins on the RNIC
(:meth:`repro.hw.rnic.Rnic.tx_time_ns` / ``rx_time_ns``), the PCIe
backlog clock, and :meth:`repro.net.congestion.switch.Switch.offer` —
and advances the whole transfer with a single timeout.

Accuracy contract (see docs/network.md):

* every structural ledger and metric counter the auditors check is
  bumped exactly as in the stepped pipeline (bytes, messages, packets,
  cache hits/misses, PCIe reads and stall time, switch port ledgers);
* serialization and PCIe queueing are served FIFO against per-resource
  fluid clocks at the stepped model's aggregate drain rate;
* latency jitter is charged at its expectation (``0.5 * jitter_ns``)
  instead of a uniform draw, and ECN marking is expected-value
  (``mark_debt``) instead of Bernoulli, so fluid runs are deterministic
  for a given arrival order;
* packet loss still draws per packet, from a dedicated RNG stream.

Nonlinear regimes (deep queues, PFC pauses, tail drops under incast,
QP-cache thrash) are where these expectations break down; results that
depend on them need the packet model (docs/network.md §6).
"""

from __future__ import annotations

import random
from typing import Generator, Iterable, Optional, TYPE_CHECKING

from ..obs.span import Span
from ..sim import Event
from .transport import TransportModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fabric import Fabric, Node

__all__ = ["FluidModel"]


class FluidModel(TransportModel):
    """Flow-level transfers: one dispatched event per uncontended hop."""

    def __init__(self, fabric: "Fabric"):
        super().__init__(fabric)
        #: Loss draws come from their own seeded stream (not
        #: ``fabric.rng``), which pins fluid runs with injected loss to
        #: the draw sequence their committed results were taken with.
        self._loss_rng = random.Random(fabric.seed ^ 0xF10D)

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
        if src.rnic.tx_gate is not None:
            # PFC head-of-line blocking keeps its stepped semantics: the
            # gate is a no-op generator unless the node is paused.
            yield from src.rnic.tx_gate(span)
        delay = src.rnic.tx_time_ns(nbytes, src_qpn, rkeys, span=span)
        hop = fab.cfg.propagation_ns + src.rnic.cfg.base_latency_ns
        if jitter_ns > 0:
            # Expected value of the stepped model's uniform draw.
            hop += 0.5 * jitter_ns
        if fab.loss_prob > 0:
            lost = sum(1 for _ in range(n_packets)
                       if self._loss_rng.random() < fab.loss_prob)
            if lost:
                if not reliable:
                    fab.messages_dropped += 1
                    if fab._obs:
                        fab._m_drops.inc()
                    return False
                delay += fab.retransmit_ns * lost
                if fab._obs:
                    fab._m_retransmits.inc(lost)
        marked = False
        if fab.switch is not None:
            while True:
                accepted, marked, wait = fab.switch.offer(
                    src.name, dst.name, wire_bytes, span=span)
                if accepted:
                    delay += wait
                    break
                if not reliable:
                    fab.messages_dropped += 1
                    if fab._obs:
                        fab._m_drops.inc()
                    return False
                # Tail drop on RC keeps a real timeout: the resubmission
                # must see the queue as it stands *after* the backoff.
                if fab._obs:
                    fab._m_retransmits.inc()
                yield sim.timeout(fab.retransmit_ns)
        arrival = sim.now + delay + hop
        if span is not None:
            span.add_phase("propagation", arrival - hop, arrival)
            span.wait("propagation", arrival - hop, arrival)
        delay = (arrival - sim.now) + dst.rnic.rx_time_ns(
            nbytes, dst_qpn, rkeys, span=span, at=arrival)
        if span is not None:
            # The one analytic advance, attributable as fluid-model time.
            span.wait("fluid", sim.now, sim.now + delay)
        yield sim.timeout(delay)
        # rx is booked on landing, in lockstep with the delivery ledger,
        # so the delivered==rx audit holds even at a window cutoff.
        dst.rnic.commit_rx()
        fab.messages_delivered += 1
        if marked and reliable and fab.dcqcn_active:
            sim.spawn(fab._deliver_cnp(src.name, src_qpn), name="cnp")
        return True
