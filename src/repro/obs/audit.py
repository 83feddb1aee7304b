"""End-of-run invariant auditors.

Every simulation leaves behind two independent records of what happened:
*structural* counters kept by the components themselves (``Rnic``,
``CreditState``, ``CompletionQueue``, ...) and, when telemetry is live,
the typed instruments in the metrics :class:`~repro.obs.Registry`.  The
auditors cross-check the two against conservation laws the model must
obey regardless of configuration:

* **monotone-time** — virtual time never ran backwards and no recorded
  span phase ends before it starts;
* **credits** — per FLock credit state, credits issued equal credits
  consumed plus credits still held (paper §5.1 flow control);
* **qp-cache** — every QP/MTT cache miss issued exactly one PCIe read
  (Fig. 1's state-fetch path), and the cache counters agree with the
  structural :class:`~repro.hw.cache.CacheStats`;
* **cqe-conservation** — CQEs generated by the NICs equal CQEs pushed to
  (or overflowed at) completion queues plus CQE DMAs still in flight;
* **wr-conservation** — work requests complete at most once each, and
  the posted-WR counters agree with per-QP ledgers;
* **byte-conservation** — wire bytes = payload + header bytes, fabric
  deliveries match NIC receive counts, and PCIe stall time matches the
  link's busy-time integral;
* **coalescing** — the ``flock.message_bytes`` histogram reconciles
  exactly against the coalesced request/byte counters through the
  :func:`~repro.flock.message.coalesced_overhead` framing identity;
* **queues** — every tracked queue (CQs, server inboxes) satisfies
  depth conservation and Little's law: the time integral of queue depth
  equals the summed waits of reaped items plus the residual wait of
  items still queued;
* **switch** — when the congestion model is on, every byte offered to an
  egress port was either accepted or dropped, queue depth stays within
  the configured buffer (and PFC mode never drops), and CNPs delivered
  never exceed packets ECN-marked.

Checks that need registry counters are *skipped* (and recorded as such)
when no live registry is supplied — structural invariants always run.
Component discovery walks ``sim.components``; the component-type imports
are deliberately lazy so ``repro.obs`` stays importable from the layers
it instruments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

__all__ = [
    "Violation",
    "AuditReport",
    "AuditError",
    "AuditContext",
    "DEFAULT_AUDITORS",
    "run_audit",
]

#: Relative slack for float-valued identities (time integrals): the DES
#: is deterministic but ns-scale float sums reassociate across code
#: paths, so exact ``==`` would be brittle for non-integer quantities.
_FLOAT_RTOL = 1e-9
_FLOAT_ATOL = 1e-6


@dataclass
class Violation:
    """One failed invariant check."""

    auditor: str
    invariant: str
    detail: str
    observed: float = 0.0
    expected: float = 0.0

    def __str__(self) -> str:
        return "[%s] %s: %s (observed=%s expected=%s)" % (
            self.auditor, self.invariant, self.detail,
            self.observed, self.expected)


@dataclass
class AuditReport:
    """Outcome of one :func:`run_audit` pass."""

    checks: int = 0
    violations: List[Violation] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    #: Informational figures some auditors report (e.g. per-queue
    #: Little's-law L / lambda / W), keyed by invariant name.
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self, max_violations: int = 20) -> str:
        lines = ["audit: %d checks, %d violations, %d skipped"
                 % (self.checks, len(self.violations), len(self.skipped))]
        for v in self.violations[:max_violations]:
            lines.append("  FAIL " + str(v))
        extra = len(self.violations) - max_violations
        if extra > 0:
            lines.append("  ... %d more violations" % extra)
        for s in self.skipped:
            lines.append("  skip %s" % s)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "checks": self.checks,
            "ok": self.ok,
            "violations": [vars(v) for v in self.violations],
            "skipped": list(self.skipped),
            "info": dict(self.info),
        }


class AuditError(AssertionError):
    """Raised by :func:`run_audit` when asked to fail on violations."""

    def __init__(self, report: AuditReport):
        super().__init__(report.format())
        self.report = report


class AuditContext:
    """State threaded through the auditor functions.

    ``registry`` is the metrics registry *for this simulation only* —
    pass None when the registry was shared with earlier runs (its
    counters are cumulative, so cross-checks against per-sim structural
    counters would be meaningless).  Counter-based checks then become
    recorded skips.
    """

    def __init__(self, sim: Any, registry: Any = None):
        self.sim = sim
        if registry is not None and not getattr(registry, "enabled", False):
            registry = None
        self.registry = registry
        self.report = AuditReport()
        self.auditor = ""

    # -- discovery -------------------------------------------------------

    def components(self, cls: type) -> List[Any]:
        return [c for c in getattr(self.sim, "components", ())
                if isinstance(c, cls)]

    def counter(self, name: str) -> float:
        assert self.registry is not None
        return self.registry.counter(name).value

    def histogram(self, name: str) -> Any:
        assert self.registry is not None
        return self.registry.histogram(name)

    # -- checks ----------------------------------------------------------

    def check(self, invariant: str, ok: bool, detail: str = "",
              observed: float = 0.0, expected: float = 0.0) -> bool:
        self.report.checks += 1
        if not ok:
            self.report.violations.append(Violation(
                auditor=self.auditor, invariant=invariant, detail=detail,
                observed=observed, expected=expected))
        return ok

    def check_eq(self, invariant: str, observed, expected,
                 detail: str = "", exact: bool = True) -> bool:
        """Exact (integer) or tolerance-padded (float) equality."""
        if exact:
            ok = observed == expected
        else:
            tol = _FLOAT_ATOL + _FLOAT_RTOL * max(abs(observed), abs(expected))
            ok = abs(observed - expected) <= tol
        return self.check(invariant, ok,
                          detail or "expected equality", observed, expected)

    def check_ge(self, invariant: str, observed, floor,
                 detail: str = "") -> bool:
        return self.check(invariant, observed >= floor,
                          detail or "expected observed >= floor",
                          observed, floor)

    def skip(self, invariant: str, why: str = "no per-run registry") -> None:
        self.report.skipped.append("%s: %s" % (invariant, why))


# -- auditors -------------------------------------------------------------


def audit_monotone_time(ctx: AuditContext) -> None:
    """Virtual time only moves forward; span phases are well-formed."""
    sim = ctx.sim
    ctx.check_eq("sim.time_regressions",
                 getattr(sim, "time_regressions", 0), 0,
                 detail="event loop dispatched an event before sim.now")
    ctx.check("sim.now_nonnegative", sim.now >= 0.0,
              "virtual clock is negative", observed=sim.now)
    spans = getattr(sim, "spans", None)
    if spans is None or not getattr(spans, "enabled", False):
        return
    bad = 0
    total = 0
    for span in getattr(spans, "spans", ()):
        for _name, t0, t1 in getattr(span, "phases", ()):
            total += 1
            if t1 < t0:
                bad += 1
    ctx.check_eq("spans.phase_monotonicity", bad, 0,
                 detail="%d of %d recorded span phases end before they "
                        "start" % (bad, total))


def audit_credits(ctx: AuditContext) -> None:
    """Per §5.1 flow control: issued == consumed + still outstanding."""
    from ..flock.credits import CreditState

    states = ctx.components(CreditState)
    if not states:
        ctx.skip("flock.credits.conservation", "no credit states in run")
        return
    for i, cs in enumerate(states):
        ctx.check_eq(
            "flock.credits.conservation[%d]" % i,
            cs.issued_total, cs.consumed_total + cs.credits,
            detail="credits issued != consumed + outstanding "
                   "(consumed=%d outstanding=%d grants=%d)"
                   % (cs.consumed_total, cs.credits, cs.grants_received))
        ctx.check_ge("flock.credits.nonnegative[%d]" % i, cs.credits, 0,
                     detail="credit balance went negative")


def audit_qp_cache(ctx: AuditContext) -> None:
    """Connection/translation cache accounting (paper Fig. 1, §2.2)."""
    from ..hw.rnic import Rnic

    rnics = ctx.components(Rnic)
    if not rnics:
        ctx.skip("rnic.qp_cache", "no RNICs in run")
        return
    for nic in rnics:
        qs, ms = nic.qp_cache.stats, nic.mtt_cache.stats
        ctx.check_eq(
            "rnic.cache_accounting[%s]" % nic.name,
            qs.accesses + ms.accesses,
            qs.hits + qs.misses + ms.hits + ms.misses,
            detail="cache accesses != hits + misses")
        # Every miss fetches state over PCIe, and nothing else does.
        ctx.check_eq(
            "rnic.pcie_read_conservation[%s]" % nic.name,
            nic.pcie.reads_issued, qs.misses + ms.misses,
            detail="PCIe reads issued != QP misses + MTT misses")
    if ctx.registry is None:
        ctx.skip("rnic.qp_cache.counters")
        return
    for cname, pick in (
            ("rnic.qp_cache.hits", lambda n: n.qp_cache.stats.hits),
            ("rnic.qp_cache.misses", lambda n: n.qp_cache.stats.misses),
            ("rnic.mtt_cache.hits", lambda n: n.mtt_cache.stats.hits),
            ("rnic.mtt_cache.misses", lambda n: n.mtt_cache.stats.misses)):
        ctx.check_eq(
            cname + ".counter", ctx.counter(cname),
            sum(pick(n) for n in rnics),
            detail="registry counter disagrees with structural cache stats")


def audit_cqe_conservation(ctx: AuditContext) -> None:
    """CQEs generated == pushed + overflowed + DMA-in-flight."""
    from ..hw.rnic import Rnic
    from ..verbs.cq import CompletionQueue

    rnics = ctx.components(Rnic)
    cqs = ctx.components(CompletionQueue)
    if not rnics and not cqs:
        ctx.skip("verbs.cqe_conservation", "no NICs or CQs in run")
        return
    generated = sum(n.cqes_generated for n in rnics)
    pending = sum(n.cqes_dma_pending for n in rnics)
    pushed = sum(cq.pushed for cq in cqs)
    overflowed = sum(cq.overflowed for cq in cqs)
    ctx.check_eq(
        "verbs.cqe_conservation",
        generated, pushed + overflowed + pending,
        detail="CQEs generated != pushed + overflowed + dma-pending "
               "(pushed=%d overflowed=%d pending=%d)"
               % (pushed, overflowed, pending))
    ctx.check_ge("verbs.cqe_dma_pending_nonneg", pending, 0,
                 detail="in-flight CQE DMA count went negative")
    if ctx.registry is None:
        ctx.skip("verbs.cqe_conservation.counters")
        return
    ctx.check_eq("rnic.cqes.counter", ctx.counter("rnic.cqes"), generated,
                 detail="rnic.cqes counter disagrees with structural total")
    ctx.check_eq("verbs.cq.pushed.counter",
                 ctx.counter("verbs.cq.pushed"), pushed,
                 detail="verbs.cq.pushed counter disagrees with CQ ledgers")
    ctx.check_eq("verbs.cq.overflowed.counter",
                 ctx.counter("verbs.cq.overflowed"), overflowed,
                 detail="verbs.cq.overflowed counter disagrees with CQs")


def audit_wr_conservation(ctx: AuditContext) -> None:
    """Work requests: posted >= completed per QP; counters agree."""
    from ..verbs.qp import QueuePair

    qps = ctx.components(QueuePair)
    if not qps:
        ctx.skip("verbs.wr_conservation", "no QPs in run")
        return
    for qp in qps:
        ctx.check_ge(
            "verbs.wr_inflight_nonneg[qpn=%d@%s]" % (qp.qpn, qp.node.name),
            qp.sends_posted, qp.sends_completed,
            detail="more sends completed than posted")
    if ctx.registry is None:
        ctx.skip("verbs.wr_conservation.counters")
        return
    ctx.check_eq("verbs.wrs_posted.counter",
                 ctx.counter("verbs.wrs_posted"),
                 sum(qp.sends_posted for qp in qps),
                 detail="wrs_posted counter disagrees with per-QP ledgers")
    ctx.check_eq("verbs.recv_drops.counter",
                 ctx.counter("verbs.recv_drops"),
                 sum(qp.recv_drops for qp in qps),
                 detail="recv_drops counter disagrees with per-QP ledgers")


def audit_byte_conservation(ctx: AuditContext) -> None:
    """Fabric/NIC/PCIe byte and message accounting."""
    from ..hw.pcie import PcieLink
    from ..hw.rnic import Rnic
    from ..net.fabric import Fabric

    fabrics = ctx.components(Fabric)
    rnics = ctx.components(Rnic)
    if not fabrics:
        ctx.skip("net.byte_conservation", "no fabric in run")
    else:
        delivered = sum(f.messages_delivered for f in fabrics)
        dropped = sum(f.messages_dropped for f in fabrics)
        tx = sum(n.messages_tx for n in rnics)
        rx = sum(n.messages_rx for n in rnics)
        # rx_process runs before the fabric counts a delivery, and a drop
        # is decided after tx_process — both differences are in-flight.
        ctx.check_eq("net.delivered_vs_rx", rx, delivered,
                     detail="fabric deliveries != NIC rx count")
        ctx.check_ge("net.tx_vs_terminal", tx, delivered + dropped,
                     detail="more transfers finished than NIC tx count")
    pcies = ctx.components(PcieLink)
    for i, link in enumerate(pcies):
        ctx.check_ge("pcie.outstanding_nonneg[%d]" % i, link.outstanding, 0,
                     detail="outstanding PCIe reads negative")
    if ctx.registry is None:
        ctx.skip("net.byte_conservation.counters")
        return
    wire = ctx.counter("net.wire_bytes")
    payload = ctx.counter("net.payload_bytes")
    header = ctx.counter("net.header_bytes")
    ctx.check_eq("net.wire_bytes.split", wire, payload + header,
                 detail="wire bytes != payload + per-packet headers")
    started = ctx.counter("net.messages")
    if fabrics:
        ctx.check_ge("net.messages.in_flight", started,
                     sum(f.messages_delivered + f.messages_dropped
                         for f in fabrics),
                     detail="more transfers terminal than started")
    if rnics:
        ctx.check_ge("net.payload_vs_nic_tx", payload,
                     sum(n.bytes_tx for n in rnics),
                     detail="NIC tx bytes exceed fabric payload bytes")
        ctx.check_eq("rnic.messages_rx.counter",
                     ctx.counter("rnic.messages_rx"),
                     sum(n.messages_rx for n in rnics),
                     detail="rnic rx counter disagrees with structural")
    if pcies:
        ctx.check_eq("pcie.reads.counter", ctx.counter("pcie.reads"),
                     sum(l.reads_issued for l in pcies),
                     detail="pcie.reads counter disagrees with links")
        ctx.check_eq("pcie.stall_ns.counter", ctx.counter("pcie.stall_ns"),
                     sum(l.busy_ns for l in pcies),
                     detail="pcie stall-time counter disagrees with "
                            "links' busy-time integral", exact=False)


def audit_coalescing(ctx: AuditContext) -> None:
    """Reconcile the message-size histogram with the framing identity

    ``message_bytes.total == messages * overhead(0)
        + META_BYTES * rpcs_coalesced + rpc_bytes_coalesced``

    which holds because every coalesced message is framed by
    :func:`~repro.flock.message.coalesced_overhead` (paper §4.1, Fig. 5).
    """
    from ..flock.message import META_BYTES, coalesced_overhead

    if ctx.registry is None:
        ctx.skip("flock.coalescing", "registry required for histograms")
        return
    messages = ctx.counter("flock.client.messages")
    degree = ctx.histogram("flock.coalescing_degree")
    msg_bytes = ctx.histogram("flock.message_bytes")
    rpcs = ctx.counter("flock.client.rpcs")
    rpcs_coalesced = ctx.counter("flock.client.rpcs_coalesced")
    byte_total = ctx.counter("flock.client.rpc_bytes_coalesced")
    if messages == 0 and rpcs == 0:
        ctx.skip("flock.coalescing", "no FLock client traffic")
        return
    ctx.check_eq("flock.degree_count", degree.count, messages,
                 detail="one degree sample per coalesced message")
    ctx.check_eq("flock.degree_total", degree.total, rpcs_coalesced,
                 detail="degree histogram mass != RPCs coalesced")
    ctx.check_eq(
        "flock.message_bytes_identity", msg_bytes.total,
        messages * coalesced_overhead(0)
        + META_BYTES * rpcs_coalesced + byte_total,
        detail="message bytes != framing overhead + coalesced payload")
    ctx.check_ge("flock.rpcs_vs_coalesced", rpcs, rpcs_coalesced,
                 detail="more RPCs coalesced than submitted")
    ctx.check_ge("flock.server_requests_vs_coalesced", rpcs_coalesced,
                 ctx.counter("flock.server.requests"),
                 detail="server handled more requests than clients sent")


def audit_queues(ctx: AuditContext) -> None:
    """Little's law on every tracked queue: integrating queue depth over
    time must equal the summed waits of reaped items plus the residual
    wait of the items still queued (L*T == lambda*T * W + residual)."""
    from ..sim.resources import TrackedStore

    stores = [s for s in ctx.components(TrackedStore) if s.track]
    if not stores:
        ctx.skip("queues.littles_law", "no tracked queues in run")
        return
    now = ctx.sim.now
    for s in stores:
        name = s.name or "store@%x" % id(s)
        ctx.check_eq(
            "queues.depth_conservation[%s]" % name,
            s.accepted, s.reaped + len(s.items),
            detail="items accepted != reaped + still queued")
        s._tick()  # integrate the depth curve up to now (idempotent)
        expected = s.wait_ns + s.residual_wait_ns()
        ctx.check_eq(
            "queues.littles_law[%s]" % name, s.area, expected,
            detail="depth-time integral != reaped waits + residual",
            exact=False)
        if now > 0 and s.reaped:
            ctx.report.info["queues.littles_law[%s]" % name] = {
                "L": s.area / now,
                "lambda_per_ns": s.reaped / now,
                "W_ns": s.wait_ns / s.reaped,
            }


def audit_switch(ctx: AuditContext) -> None:
    """Byte/message conservation across the congestion switch's ports.

    Per egress port: every offered byte is either accepted or dropped,
    the backlog never exceeds the configured buffer (tail-drop mode), and
    PFC mode never drops.  Registry counters must agree with the
    structural per-port ledgers, and the fabric cannot have delivered
    more CNPs than the switch marked packets.
    """
    from ..net.congestion import Switch
    from ..net.fabric import Fabric

    switches = ctx.components(Switch)
    if not switches:
        ctx.skip("switch.conservation", "no congestion switch in run")
        return
    now = ctx.sim.now
    for sw in switches:
        for name, p in sorted(sw.ports.items()):
            ctx.check_eq(
                "switch.byte_conservation[%s]" % name,
                p.offered_bytes, p.accepted_bytes + p.dropped_bytes,
                detail="offered bytes != accepted + dropped")
            ctx.check_eq(
                "switch.msg_conservation[%s]" % name,
                p.offered_msgs, p.accepted_msgs + p.dropped_msgs,
                detail="offered msgs != accepted + dropped")
            ctx.check_ge(
                "switch.depth_nonneg[%s]" % name, p.depth_bytes(now), 0.0,
                detail="egress queue depth negative")
            ctx.check_ge(
                "switch.marks_vs_accepted[%s]" % name,
                p.accepted_msgs, p.ecn_marks,
                detail="more ECN marks than accepted messages")
            if sw.cfg.pfc:
                ctx.check_eq(
                    "switch.pfc_lossless[%s]" % name, p.dropped_msgs, 0,
                    detail="PFC mode dropped a message")
            else:
                ctx.check(
                    "switch.depth_bounded[%s]" % name,
                    p.peak_depth_bytes <= sw.cfg.buffer_bytes + 1e-6,
                    "peak egress depth exceeds the configured buffer",
                    observed=p.peak_depth_bytes,
                    expected=sw.cfg.buffer_bytes)
    fabrics = ctx.components(Fabric)
    marks = sum(sw.total_ecn_marks for sw in switches)
    cnps = sum(f.cnps_delivered for f in fabrics)
    ctx.check_ge("switch.cnps_vs_marks", marks, cnps,
                 detail="more CNPs delivered than packets ECN-marked")
    if ctx.registry is None:
        ctx.skip("switch.conservation.counters")
        return
    ctx.check_eq("switch.bytes.counter", ctx.counter("switch.bytes"),
                 sum(p.accepted_bytes for sw in switches
                     for p in sw.ports.values()),
                 detail="switch.bytes counter disagrees with port ledgers")
    ctx.check_eq("switch.drops.counter", ctx.counter("switch.drops"),
                 sum(sw.total_drops for sw in switches),
                 detail="switch.drops counter disagrees with port ledgers")
    ctx.check_eq("switch.ecn_marks.counter", ctx.counter("switch.ecn_marks"),
                 marks,
                 detail="switch.ecn_marks counter disagrees with ports")
    ctx.check_eq("net.cnps.counter", ctx.counter("net.cnps"), cnps,
                 detail="net.cnps counter disagrees with fabric ledger")


#: (name, function) pairs, in execution order.  The names are stable API:
#: mutation tests and CLI output key off them.
DEFAULT_AUDITORS: List[Tuple[str, Callable[[AuditContext], None]]] = [
    ("monotone-time", audit_monotone_time),
    ("credits", audit_credits),
    ("qp-cache", audit_qp_cache),
    ("cqe-conservation", audit_cqe_conservation),
    ("wr-conservation", audit_wr_conservation),
    ("byte-conservation", audit_byte_conservation),
    ("coalescing", audit_coalescing),
    ("queues", audit_queues),
    ("switch", audit_switch),
]


def run_audit(sim: Any, registry: Any = None,
              auditors: Optional[List[Tuple[str, Callable]]] = None,
              raise_on_violation: bool = False) -> AuditReport:
    """Run every auditor against a finished simulation.

    ``registry`` must be the metrics registry that was installed on
    *this* simulation only (counters are cumulative per registry); pass
    None to restrict the audit to structural invariants.
    """
    ctx = AuditContext(sim, registry)
    for name, fn in (auditors if auditors is not None else DEFAULT_AUDITORS):
        ctx.auditor = name
        try:
            fn(ctx)
        except Exception as exc:  # an auditor bug must not pass silently
            ctx.report.violations.append(Violation(
                auditor=name, invariant="auditor.crashed",
                detail="%s: %s" % (type(exc).__name__, exc)))
    if raise_on_violation and not ctx.report.ok:
        raise AuditError(ctx.report)
    return ctx.report
