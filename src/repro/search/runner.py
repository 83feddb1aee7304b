"""Candidate evaluation: one search point -> one explained measurement.

A candidate runs the same two-leg protocol as the incast benchmark: the
FLock echo workload once on the contention-free fabric (its own
uncongested baseline) and once with the switched-fabric model and the
candidate's fabric knobs.  The pair yields the anomaly measures every
objective consumes — tail inflation, goodput retention, anomaly records
from both legs, and (when traced) the critical-path attribution shift
between the legs.

:func:`evaluate_point` is a module-level function of plain JSON-safe
arguments (plus the run's frozen ``RunSpec``) returning a plain JSON-safe dict, so the driver can fan it
across the multiprocessing sweep executor; all candidate randomness
derives from ``Streams(seed).child("search/<fingerprint>")``, making the
result a pure function of (root seed, point) — independent of worker
assignment and evaluation order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from ..config import (
    GBPS,
    ClusterConfig,
    CongestionConfig,
    FlockConfig,
    NetConfig,
    NicConfig,
)
from ..flock import FlockNode
from ..net import build_cluster
from ..obs import Telemetry
from ..obs.explain import attribution_blocks, shift_table, top_shift
from ..sim import Streams
from ..workloads import BimodalSize, FixedSize
from ..harness.lifecycle import RunSpec, run_lifecycle
from ..harness.metrics import Recorder, RunResult
from ..harness.microbench import ECHO_RPC, _echo_handler
from .space import default_space

__all__ = ["ScenarioConfig", "run_scenario_leg", "evaluate_point",
           "BASE_LABEL", "CONG_LABEL"]

BASE_LABEL = "search base"
CONG_LABEL = "search cong"


@dataclass
class ScenarioConfig:
    """A fully-resolved search candidate (one point bound to a seed)."""

    n_senders: int = 12
    threads_per_client: int = 6
    outstanding: int = 2
    req_size: int = 512
    large_size: int = 4096
    large_fraction: float = 0.0
    zipf_theta: float = 0.0
    handler_ns: float = 100.0
    qp_cache_entries: int = 560
    credit_batch: int = 32
    qps_per_handle: int = 2
    buffer_bytes: int = 10_240
    dcqcn: bool = True
    pfc: bool = False
    dcqcn_rate_ai_gbps: float = 5.0
    dcqcn_min_rate_gbps: float = 1.0
    seed: int = 1
    resp_size: int = 64
    think_jitter_ns: float = 200.0
    warmup_ns: float = 300_000.0
    measure_ns: float = 500_000.0

    @classmethod
    def from_point(cls, point: dict, seed: int = 1) -> "ScenarioConfig":
        return cls(seed=seed, **point)

    def congestion(self, enabled: bool) -> CongestionConfig:
        """ECN/PFC thresholds derive from the buffer depth (the usual
        shallow-ToR provisioning rule: mark/pause at 3/4, resume at
        1/4); ``honor_env`` is stripped so CLI env flags cannot turn the
        baseline leg congested mid-comparison."""
        quarter = max(1, self.buffer_bytes // 4)
        return CongestionConfig(
            enabled=enabled, honor_env=False,
            buffer_bytes=self.buffer_bytes,
            ecn_kmin_bytes=quarter, ecn_kmax_bytes=3 * quarter,
            pfc=self.pfc if enabled else False,
            pfc_xoff_bytes=3 * quarter, pfc_xon_bytes=quarter,
            dcqcn_enabled=self.dcqcn,
            dcqcn_rate_ai_bytes_per_ns=self.dcqcn_rate_ai_gbps * GBPS,
            dcqcn_rate_hai_bytes_per_ns=5 * self.dcqcn_rate_ai_gbps * GBPS,
            dcqcn_min_rate_bytes_per_ns=self.dcqcn_min_rate_gbps * GBPS)

    def cluster(self, congested: bool) -> ClusterConfig:
        return ClusterConfig(
            n_clients=self.n_senders, seed=self.seed,
            nic=NicConfig(qp_cache_entries=self.qp_cache_entries),
            net=replace(NetConfig(), congestion=self.congestion(congested)))

    def flock(self) -> FlockConfig:
        return FlockConfig(
            credit_batch=self.credit_batch,
            credit_renew_threshold=max(1, self.credit_batch // 2),
            qps_per_handle=self.qps_per_handle,
            sched_interval_ns=150_000.0,
            thread_sched_interval_ns=150_000.0)

    def sizegen(self):
        """Per-thread message-size mix: ``large_fraction`` of each
        client's threads send ``large_size``, the rest ``req_size``."""
        if self.large_fraction <= 0.0:
            return FixedSize(self.req_size)
        return BimodalSize(self.threads_per_client,
                           large_size=max(self.large_size, self.req_size),
                           small_size=self.req_size,
                           large_fraction=self.large_fraction)

    def think_scale(self, thread_id: int) -> float:
        """Zipfian tenant-activity skew: thread rank 0 is the hot tenant
        (full rate); colder ranks think ``(rank+1)**theta`` times longer.
        theta=0 collapses to uniform tenants."""
        return (thread_id + 1) ** self.zipf_theta


def run_scenario_leg(cfg: ScenarioConfig, *, congested: bool,
                     telemetry=None, spec: Optional[RunSpec] = None
                     ) -> RunResult:
    """One leg of a candidate: all senders -> one FLock server."""
    label = CONG_LABEL if congested else BASE_LABEL
    with run_lifecycle(label, cfg.warmup_ns, cfg.measure_ns,
                       spec, telemetry) as life:
        sim = life.sim
        servers, clients, fabric = build_cluster(sim, cfg.cluster(congested))
        flock_cfg = cfg.flock()
        server = FlockNode(sim, servers[0], fabric, flock_cfg)
        server.fl_reg_handler(ECHO_RPC, _echo_handler(
            life, cfg.resp_size, cfg.handler_ns))

        recorder = Recorder(sim)
        jitter_rng = random.Random(cfg.seed ^ 0x7EA)
        sizegen = cfg.sizegen()
        handles = []

        def worker(fnode, handle, thread_id, size, think_ns, rng):
            while True:
                if think_ns > 0:
                    yield sim.timeout(rng.random() * think_ns)
                started = sim.now
                yield from fnode.fl_call(handle, thread_id, ECHO_RPC, size)
                recorder.record(started)

        for c_idx, node in enumerate(clients):
            fnode = FlockNode(sim, node, fabric, flock_cfg,
                              seed=cfg.seed + c_idx * 131)
            handle = fnode.fl_connect(server, n_qps=cfg.qps_per_handle)
            handles.append(handle)
            for t_idx in range(cfg.threads_per_client):
                size = sizegen.next(t_idx)
                think_ns = cfg.think_jitter_ns * cfg.think_scale(t_idx)
                for _ in range(cfg.outstanding):
                    rng = random.Random(jitter_rng.getrandbits(48))
                    sim.spawn(worker(fnode, handle, t_idx, size, think_ns,
                                     rng),
                              name="search-worker")

        life.run_window(recorder, fabric)
        degree = (sum(h.mean_coalescing_degree() for h in handles)
                  / len(handles) if handles else 1.0)
        sw = fabric.switch
        extras = {
            "system": "search-%s" % ("cong" if congested else "base"),
            "mean_coalescing_degree": round(degree, 3),
            "server_cpu": round(servers[0].cpu.utilization(), 3),
            "congested": sw is not None,
        }
        if sw is not None:
            extras.update(
                pfc=sw.cfg.pfc,
                buffer_bytes=sw.cfg.buffer_bytes,
                peak_port_depth_bytes=round(sw.peak_depth_bytes(), 1),
                switch_drops=sw.total_drops,
                ecn_marks=sw.total_ecn_marks,
                pfc_pauses=sw.total_pause_events,
                cnps=fabric.cnps_delivered)
        return life.finish(recorder.result(**extras))


def _leg_summary(res: RunResult) -> dict:
    """The JSON-safe per-leg block that rides in an evaluation."""
    keep = ("server_cpu", "mean_coalescing_degree", "peak_port_depth_bytes",
            "switch_drops", "ecn_marks", "pfc_pauses", "cnps")
    out = {
        "ops": res.ops,
        "mops": round(res.mops, 4),
        "median_us": round(res.median_us, 3),
        "p99_us": round(res.p99_us, 3),
        "p999_us": round(res.p999_us, 3),
    }
    for key in keep:
        if key in res.extras:
            out[key] = res.extras[key]
    return out


def evaluate_point(point: dict, seed: int = 7, trace: bool = False,
                   spec: Optional[RunSpec] = None) -> dict:
    """Evaluate one candidate: baseline + congested leg, JSON-safe dict.

    With ``trace=True`` each leg runs under a private span-collecting
    telemetry and the result carries per-leg attribution shares plus the
    baseline->scenario shift table.  The telemetry never leaves this
    process — only plain data crosses the executor's pickle boundary,
    which preserves jobs-1-vs-N byte-identity.
    """
    space = default_space()
    point = space.clamp(point)
    fingerprint = space.fingerprint(point)
    streams = Streams(seed).child("search/%s" % fingerprint)
    cfg = ScenarioConfig.from_point(point, seed=streams.seed)

    legs = {}
    blocks = {}
    for congested, leg in ((False, "base"), (True, "cong")):
        tel = Telemetry(wants_spans=True) if trace else None
        res = run_scenario_leg(cfg, congested=congested, telemetry=tel,
                               spec=spec)
        legs[leg] = res
        if trace:
            blocks.update(attribution_blocks(tel))

    base, cong = legs["base"], legs["cong"]
    anomalies = {"base": list(base.anomalies), "cong": list(cong.anomalies)}
    severities = [a.get("severity", 0.0)
                  for side in anomalies.values() for a in side]
    evaluation = {
        "fingerprint": fingerprint,
        "point": point,
        "seed": streams.seed,
        "baseline": _leg_summary(base),
        "scenario": _leg_summary(cong),
        "tail_ratio": round(cong.p99_us / max(cong.median_us, 1e-9), 4),
        "goodput_retained": round(cong.mops / max(base.mops, 1e-9), 4),
        "anomalies": anomalies,
        "max_anomaly_severity": round(max(severities), 6) if severities
        else 0.0,
    }
    if trace:
        base_shares = blocks.get(BASE_LABEL, {}).get("shares", {})
        cong_shares = blocks.get(CONG_LABEL, {}).get("shares", {})
        shifts = shift_table(base_shares, cong_shares)
        evaluation["attribution"] = blocks
        evaluation["shift"] = shifts
        evaluation["top_shift"] = top_shift(shifts)
    return evaluation
