"""Microbenchmark runners (paper Figs. 2, 6-12).

Each function builds a fresh cluster, spawns closed-loop client workers,
runs a warmup long enough for FLock's schedulers to converge, measures a
virtual-time window, and returns a :class:`RunResult` in paper units.
Setup and teardown (telemetry, audit, observatory, window scaling) are
the shared :func:`repro.harness.lifecycle.run_lifecycle`; every runner
takes the run's :class:`~repro.harness.lifecycle.RunSpec` as ``spec=``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..baselines import (
    ErpcEndpoint,
    ErpcServer,
    RcRpcClient,
    RcRpcServer,
    ReadClient,
    UdEndpoint,
    UdRpcServer,
)
from ..config import ClusterConfig, FlockConfig
from ..flock import FlockNode
from ..net import build_cluster
from ..obs import faults
from ..obs.anomaly import detect_run_anomalies
from ..workloads import FixedSize
from .lifecycle import RunSpec, run_lifecycle
from .metrics import Recorder, RunResult, host_block

__all__ = [
    "MicrobenchConfig",
    "run_flock",
    "run_erpc",
    "run_rc",
    "run_raw_reads",
    "run_ud_rpc",
    "sweep_raw_reads",
    "sweep_ud_rpc",
    "sweep_flock_vs_erpc",
]

ECHO_RPC = 1


@dataclass
class MicrobenchConfig:
    """Shared knobs of the RPC microbenchmarks."""

    n_clients: int = 23
    threads_per_client: int = 16
    outstanding: int = 1
    #: Client processes per node (Fig. 12 runs up to 16).
    processes_per_client: int = 1
    req_size: int = 64
    resp_size: int = 64
    #: Server-side application work per request.
    handler_ns: float = 100.0
    #: Per-iteration client think-time jitter (uniform [0, x) ns): real
    #: application threads never re-issue in perfect lockstep, which
    #: keeps coalescing degrees realistic instead of phase-locked.
    think_jitter_ns: float = 300.0
    warmup_ns: float = 600_000.0
    measure_ns: float = 500_000.0
    seed: int = 1
    #: Optional per-thread size generator (Fig. 11); overrides req_size.
    sizegen: Optional[object] = None
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    def make_sizegen(self):
        return self.sizegen if self.sizegen is not None else FixedSize(self.req_size)


#: ``bench.step_handler_cost`` multiplies the server handler cost by
#: this factor once virtual time passes ``step_at_ns`` — a manufactured
#: mid-run latency changepoint the anomaly detectors must catch (and CI
#: proves they do, while staying silent on the clean twin run).
STEP_FAULT_FACTOR = 25.0


def _echo_handler(life, resp_size: int, handler_ns: float):
    """The echo server's handler; under ``bench.step_handler_cost`` its
    cost steps up halfway through ``life``'s measurement window."""
    if faults.is_active("bench.step_handler_cost"):
        sim = life.sim
        step_at_ns = life.warmup + life.measure / 2

        def faulty_handler(request):
            if sim.now >= step_at_ns:
                return resp_size, None, handler_ns * STEP_FAULT_FACTOR
            return resp_size, None, handler_ns
        return faulty_handler

    def handler(request):
        return resp_size, None, handler_ns
    return handler


# ---------------------------------------------------------------------------
# FLock (Figs. 6-12)
# ---------------------------------------------------------------------------

def run_flock(cfg: MicrobenchConfig, *, qps_per_process: Optional[int] = None,
              coalescing: bool = True, thread_scheduling: bool = True,
              flock_cfg: Optional[FlockConfig] = None,
              telemetry=None, spec: Optional[RunSpec] = None) -> RunResult:
    """Closed-loop echo RPCs over FLock."""
    with run_lifecycle("flock", cfg.warmup_ns, cfg.measure_ns,
                       spec, telemetry) as life:
        sim = life.sim
        cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
        servers, clients, fabric = build_cluster(sim, cluster)
        if flock_cfg is None:
            # Fast scheduler convergence for short measurement windows.
            flock_cfg = FlockConfig(sched_interval_ns=150_000.0,
                                    thread_sched_interval_ns=150_000.0)
        server = FlockNode(sim, servers[0], fabric, flock_cfg)
        server.fl_reg_handler(ECHO_RPC, _echo_handler(
            life, cfg.resp_size, cfg.handler_ns))

        recorder = Recorder(sim)
        sizegen = cfg.make_sizegen()
        n_qps = qps_per_process or cfg.threads_per_client
        handles = []
        jitter_rng = random.Random(cfg.seed ^ 0x7EA)

        def worker(flock_client, handle, thread_id, rng):
            while True:
                if cfg.think_jitter_ns > 0:
                    yield sim.timeout(rng.random() * cfg.think_jitter_ns)
                size = sizegen.next(thread_id)
                started = sim.now
                yield from flock_client.fl_call(handle, thread_id, ECHO_RPC,
                                                size)
                recorder.record(started)

        for c_idx, node in enumerate(clients):
            for p_idx in range(cfg.processes_per_client):
                fnode = FlockNode(sim, node, fabric, flock_cfg,
                                  seed=cfg.seed + c_idx * 131 + p_idx)
                fnode.client.coalescing_enabled = coalescing
                fnode.client.thread_scheduling_enabled = thread_scheduling
                handle = fnode.fl_connect(server, n_qps=n_qps)
                handles.append(handle)
                for t_idx in range(cfg.threads_per_client):
                    for _ in range(cfg.outstanding):
                        rng = random.Random(jitter_rng.getrandbits(48))
                        sim.spawn(worker(fnode, handle, t_idx, rng),
                                  name="bench-worker")

        life.run_window(recorder, fabric)
        degree = (sum(h.mean_coalescing_degree() for h in handles)
                  / len(handles) if handles else 1.0)
        return life.finish(recorder.result(
            system="flock",
            mean_coalescing_degree=round(degree, 3),
            active_qps=server.server.total_active_qps,
            server_cpu=round(servers[0].cpu.utilization(), 3),
            server_net_frac=round(servers[0].cpu.network_fraction(), 3),
            qp_cache_miss=round(servers[0].rnic.qp_cache.stats.miss_ratio, 4),
            events=sim.events_processed,
        ))


# ---------------------------------------------------------------------------
# eRPC (Figs. 6-8, 16-18 baseline)
# ---------------------------------------------------------------------------

def run_erpc(cfg: MicrobenchConfig, *, telemetry=None,
             spec: Optional[RunSpec] = None) -> RunResult:
    """Closed-loop echo RPCs over the eRPC-like UD baseline."""
    with run_lifecycle("erpc", cfg.warmup_ns, cfg.measure_ns,
                       spec, telemetry) as life:
        sim = life.sim
        cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
        servers, clients, fabric = build_cluster(sim, cluster)
        server = ErpcServer(sim, servers[0], fabric)
        server.register_handler(ECHO_RPC, _echo_handler(
            life, cfg.resp_size, cfg.handler_ns))

        recorder = Recorder(sim)
        sizegen = cfg.make_sizegen()
        n_endpoints = 0
        jitter_rng = random.Random(cfg.seed ^ 0x7EA)

        def worker(endpoint, server_qp, thread_id, rng):
            while True:
                if cfg.think_jitter_ns > 0:
                    yield sim.timeout(rng.random() * cfg.think_jitter_ns)
                size = sizegen.next(thread_id)
                started = sim.now
                response = yield from endpoint.call(server, server_qp,
                                                    ECHO_RPC, size)
                if response is not None:
                    recorder.record(started)

        for node in clients:
            for _p in range(cfg.processes_per_client):
                for t_idx in range(cfg.threads_per_client):
                    endpoint = ErpcEndpoint(sim, node, fabric)
                    server_qp = server.qp_for_client(n_endpoints)
                    n_endpoints += 1
                    for _ in range(cfg.outstanding):
                        rng = random.Random(jitter_rng.getrandbits(48))
                        sim.spawn(worker(endpoint, server_qp, t_idx, rng),
                                  name="erpc-worker")

        life.run_window(recorder, fabric)
        return life.finish(recorder.result(
            system="erpc",
            server_cpu=round(servers[0].cpu.utilization(), 3),
            server_net_frac=round(servers[0].cpu.network_fraction(), 3),
            recv_drops=server.recv_drops,
            events=sim.events_processed,
        ))


# ---------------------------------------------------------------------------
# RC sharing baselines: no-sharing / FaRM-style spinlock (Fig. 9)
# ---------------------------------------------------------------------------

def run_rc(cfg: MicrobenchConfig, *, threads_per_qp: int = 1,
           telemetry=None, spec: Optional[RunSpec] = None) -> RunResult:
    """Closed-loop echo RPCs over RC write-based RPC without coalescing.

    ``threads_per_qp=1`` is the dedicated-QP (no sharing) config;
    2 or 4 is FaRM-like spinlock sharing.
    """
    system = "rc-%dtpq" % threads_per_qp
    with run_lifecycle(system, cfg.warmup_ns, cfg.measure_ns,
                       spec, telemetry) as life:
        sim = life.sim
        cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
        servers, clients, fabric = build_cluster(sim, cluster)
        server = RcRpcServer(sim, servers[0], fabric)
        server.register_handler(ECHO_RPC, _echo_handler(
            life, cfg.resp_size, cfg.handler_ns))

        recorder = Recorder(sim)
        sizegen = cfg.make_sizegen()
        jitter_rng = random.Random(cfg.seed ^ 0x7EA)

        def worker(rc_client, handle, thread_id, rng):
            while True:
                if cfg.think_jitter_ns > 0:
                    yield sim.timeout(rng.random() * cfg.think_jitter_ns)
                size = sizegen.next(thread_id)
                started = sim.now
                yield from rc_client.call(handle, thread_id, ECHO_RPC, size)
                recorder.record(started)

        for node in clients:
            rc_client = RcRpcClient(sim, node, fabric)
            n_qps = max(1, (cfg.threads_per_client + threads_per_qp - 1)
                        // threads_per_qp)
            handle = rc_client.connect(server, n_qps=n_qps,
                                       threads_per_qp=threads_per_qp)
            for t_idx in range(cfg.threads_per_client):
                for _ in range(cfg.outstanding):
                    rng = random.Random(jitter_rng.getrandbits(48))
                    sim.spawn(worker(rc_client, handle, t_idx, rng),
                              name="rc-worker")

        life.run_window(recorder, fabric)
        return life.finish(recorder.result(
            system=system,
            server_cpu=round(servers[0].cpu.utilization(), 3),
            qp_cache_miss=round(servers[0].rnic.qp_cache.stats.miss_ratio, 4),
            events=sim.events_processed,
        ))


# ---------------------------------------------------------------------------
# Motivation: raw RC reads (Fig. 2a) and UD RPC (Fig. 2b)
# ---------------------------------------------------------------------------

def run_raw_reads(total_qps: int, *, n_clients: int = 22, read_size: int = 16,
                  outstanding_per_qp: int = 4,
                  warmup_ns: float = 200_000.0,
                  measure_ns: float = 300_000.0,
                  cluster: Optional[ClusterConfig] = None,
                  telemetry=None,
                  spec: Optional[RunSpec] = None) -> RunResult:
    """16-byte RDMA reads over an increasing number of QPs."""
    with run_lifecycle("rc-read qps=%d" % total_qps, warmup_ns, measure_ns,
                       spec, telemetry) as life:
        sim = life.sim
        cluster = replace(cluster or ClusterConfig(), n_clients=n_clients)
        servers, clients, fabric = build_cluster(sim, cluster)
        region = servers[0].memory.register(1 << 20)
        timeline = life.timeline(fabric)

        per_client = max(1, total_qps // n_clients)
        read_clients: List[ReadClient] = []
        for node in clients:
            rc = ReadClient(sim, node, fabric, servers[0], region,
                            n_qps=per_client, read_size=read_size,
                            outstanding_per_qp=outstanding_per_qp)
            # Raw reads have no Recorder; the passive completion hook
            # feeds the SLO timeline so Fig. 2a's cliff is visible
            # *within* a run.
            rc.on_complete = lambda started, now: timeline.observe(
                now, now - started)
            rc.start()
            read_clients.append(rc)

        life.run(until=life.warmup)
        before = sum(rc.completed for rc in read_clients)
        life.run()
        ops = sum(rc.completed for rc in read_clients) - before
        slo = timeline.report()
        return life.finish(RunResult(
            ops=ops, duration_ns=life.measure,
            latency={"count": 0, "median": 0.0, "p99": 0.0, "p999": 0.0,
                     "mean": 0.0, "min": 0.0, "max": 0.0},
            extras={
                "system": "rc-read",
                "total_qps": per_client * n_clients,
                "qp_cache_miss": round(
                    servers[0].rnic.qp_cache.stats.miss_ratio, 4),
                "pcie_reads": servers[0].rnic.pcie.reads_issued,
            },
            slo=slo,
            anomalies=detect_run_anomalies(slo, label="rc-read"),
            host=host_block(sim)))


def run_ud_rpc(n_senders: int, *, n_clients: int = 22, req_size: int = 64,
               resp_size: int = 64, handler_ns: float = 100.0,
               outstanding: int = 2, warmup_ns: float = 200_000.0,
               measure_ns: float = 300_000.0,
               cluster: Optional[ClusterConfig] = None,
               telemetry=None, spec: Optional[RunSpec] = None) -> RunResult:
    """UD-based RPC with an increasing number of senders."""
    with run_lifecycle("ud-rpc n=%d" % n_senders, warmup_ns, measure_ns,
                       spec, telemetry) as life:
        sim = life.sim
        cluster = replace(cluster or ClusterConfig(), n_clients=n_clients)
        servers, clients, fabric = build_cluster(sim, cluster)
        server = UdRpcServer(sim, servers[0], fabric)
        server.register_handler(ECHO_RPC, _echo_handler(
            life, resp_size, handler_ns))

        recorder = Recorder(sim)

        def worker(endpoint, server_qp):
            while True:
                started = sim.now
                response = yield from endpoint.call(server, server_qp,
                                                    ECHO_RPC, req_size)
                if response is not None:
                    recorder.record(started)

        per_client = max(1, n_senders // n_clients)
        sender_idx = 0
        for node in clients:
            for _s in range(per_client):
                endpoint = UdEndpoint(sim, node, fabric)
                server_qp = server.qp_for_client(sender_idx)
                sender_idx += 1
                for _ in range(outstanding):
                    sim.spawn(worker(endpoint, server_qp), name="ud-worker")

        life.run_window(recorder, fabric)
        return life.finish(recorder.result(
            system="ud-rpc",
            n_senders=per_client * n_clients,
            server_cpu=round(servers[0].cpu.utilization(), 3),
            server_net_frac=round(servers[0].cpu.network_fraction(), 3),
            events=sim.events_processed,
        ))


# ---------------------------------------------------------------------------
# Sweeps: the figure-level fan-outs (parallelizable via --jobs)
# ---------------------------------------------------------------------------

def sweep_raw_reads(qps_list, *, n_clients: int = 22,
                    outstanding_per_qp: int = 4,
                    spec: Optional[RunSpec] = None, jobs: int = 1) -> dict:
    """Fig. 2a's QP ramp as an ordered ``{qps: RunResult}`` sweep."""
    from .parallel import SweepPoint, run_sweep
    points = [
        SweepPoint("fig2a/qps=%d" % qps, run_raw_reads, (qps,),
                   {"n_clients": n_clients,
                    "outstanding_per_qp": outstanding_per_qp, "spec": spec})
        for qps in qps_list]
    merged = run_sweep(points, jobs)
    return {qps: result for qps, (_key, result) in zip(qps_list, merged)}


def sweep_ud_rpc(senders_list, *, n_clients: int = 22,
                 spec: Optional[RunSpec] = None, jobs: int = 1) -> dict:
    """Fig. 2b's sender ramp as an ordered ``{senders: RunResult}``."""
    from .parallel import SweepPoint, run_sweep
    points = [
        SweepPoint("fig2b/senders=%d" % n, run_ud_rpc, (n,),
                   {"n_clients": n_clients, "spec": spec})
        for n in senders_list]
    merged = run_sweep(points, jobs)
    return {n: result for n, (_key, result) in zip(senders_list, merged)}


def sweep_flock_vs_erpc(threads_list, *, n_clients: int = 23,
                        outstanding: int = 1,
                        spec: Optional[RunSpec] = None, jobs: int = 1) -> dict:
    """Figs. 6-8: both systems across a thread ramp.

    Returns ``{(system, outstanding, threads): RunResult}`` — the exact
    key shape :func:`repro.harness.scorecards.scorecards_fig6_7_8`
    consumes — with results identical to calling :func:`run_flock` /
    :func:`run_erpc` in a serial loop.
    """
    from .parallel import SweepPoint, run_sweep
    points = []
    for threads in threads_list:
        cfg = MicrobenchConfig(n_clients=n_clients,
                               threads_per_client=threads,
                               outstanding=outstanding)
        points.append(SweepPoint(
            "fig6/flock/t=%d" % threads, run_flock, (cfg,), {"spec": spec}))
        points.append(SweepPoint(
            "fig6/erpc/t=%d" % threads, run_erpc, (cfg,), {"spec": spec}))
    merged = iter(run_sweep(points, jobs))
    results = {}
    for threads in threads_list:
        results[("flock", outstanding, threads)] = next(merged)[1]
        results[("erpc", outstanding, threads)] = next(merged)[1]
    return results
