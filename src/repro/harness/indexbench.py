"""HydraList-over-RPC benchmarks (paper Figs. 16-18, §8.6).

A single server hosts a HydraList index; 22 client nodes issue 90 % get
and 10 % scan(64) queries over FLock or eRPC.  Scans reply with the
number of keys found as an 8-byte response, exactly as in the paper.
The index is real — lookups and scans run against the actual structure —
while the CPU charged to the server core comes from the index's cost
model, keeping virtual time faithful at simulation speed.

Population defaults to a scaled-down fraction of the paper's 32 M keys;
the cost model depends on the logarithm of the size, so the shape is
insensitive to the scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..apps.hydralist import HydraList
from ..baselines import ErpcEndpoint, ErpcServer
from ..config import ClusterConfig, FlockConfig
from ..flock import FlockNode
from ..net import build_cluster
from ..sim import Streams
from .lifecycle import RunSpec, run_lifecycle
from .metrics import Recorder, RunResult

__all__ = ["IndexBenchConfig", "run_flock_index", "run_erpc_index",
           "sweep_index"]

RPC_GET = 21
RPC_SCAN = 22

#: 8 B keys and values (paper §8.6).
GET_REQ_BYTES = 16
GET_RESP_BYTES = 8
SCAN_REQ_BYTES = 24
SCAN_RESP_BYTES = 8


@dataclass
class IndexBenchConfig:
    n_clients: int = 22
    threads_per_client: int = 8
    outstanding: int = 1
    n_keys: int = 200_000
    scan_range: int = 64
    get_fraction: float = 0.90
    warmup_ns: float = 600_000.0
    measure_ns: float = 500_000.0
    seed: int = 11
    cluster: ClusterConfig = field(default_factory=ClusterConfig)


def build_index(cfg: IndexBenchConfig) -> HydraList:
    """Bulk-load the experiment's HydraList population."""
    index = HydraList(node_capacity=64)
    index.bulk_load((key, key * 3 + 1) for key in range(cfg.n_keys))
    return index


def _handlers(index: HydraList, cfg: IndexBenchConfig):
    def get_handler(request):
        key = request.payload
        value = index.get(key)
        return GET_RESP_BYTES, value, index.get_cost_ns()

    def scan_handler(request):
        start_key = request.payload
        found = index.scan(start_key, cfg.scan_range)
        return SCAN_RESP_BYTES, len(found), index.scan_cost_ns(len(found))

    return get_handler, scan_handler


def _results(life, recorders: Dict[str, Recorder], system: str,
             **extras) -> Dict[str, RunResult]:
    """Per-recorder results plus the run's totals; the ``get`` result
    carries the run's profile and audit report."""
    out = {}
    total_ops = 0
    duration = None
    for name, recorder in recorders.items():
        result = recorder.result(system=system, **extras)
        result.telemetry = life.telemetry
        result.spec = life.spec
        out[name] = result
        total_ops += result.ops
        duration = result.duration_ns
    out["total_mops"] = total_ops / duration * 1e3 if duration else 0.0
    out["events"] = life.sim.events_processed
    life.finish(out["get"])
    return out


def run_flock_index(cfg: IndexBenchConfig,
                    flock_cfg: Optional[FlockConfig] = None,
                    telemetry=None,
                    spec: Optional[RunSpec] = None) -> Dict[str, RunResult]:
    """90 % get / 10 % scan over FLock RPC."""
    with run_lifecycle("flock-index", cfg.warmup_ns, cfg.measure_ns,
                       spec, telemetry) as life:
        sim = life.sim
        cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
        servers, clients, fabric = build_cluster(sim, cluster)
        if flock_cfg is None:
            flock_cfg = FlockConfig(sched_interval_ns=150_000.0,
                                    thread_sched_interval_ns=150_000.0)
        index = build_index(cfg)
        server = FlockNode(sim, servers[0], fabric, flock_cfg)
        get_handler, scan_handler = _handlers(index, cfg)
        server.fl_reg_handler(RPC_GET, get_handler)
        server.fl_reg_handler(RPC_SCAN, scan_handler)

        streams = Streams(cfg.seed)
        recorders = {"get": Recorder(sim), "scan": Recorder(sim)}

        def worker(fnode, handle, thread_id, rng):
            while True:
                key = rng.randrange(cfg.n_keys)
                started = sim.now
                if rng.random() < cfg.get_fraction:
                    yield from fnode.fl_call(handle, thread_id, RPC_GET,
                                             GET_REQ_BYTES, key)
                    recorders["get"].record(started)
                else:
                    yield from fnode.fl_call(handle, thread_id, RPC_SCAN,
                                             SCAN_REQ_BYTES, key)
                    recorders["scan"].record(started)

        for c_idx, node in enumerate(clients):
            fnode = FlockNode(sim, node, fabric, flock_cfg,
                              seed=cfg.seed + c_idx)
            handle = fnode.fl_connect(server, n_qps=cfg.threads_per_client)
            for t_idx in range(cfg.threads_per_client):
                for k in range(cfg.outstanding):
                    rng = streams.stream("hydra-%d-%d-%d" % (c_idx, t_idx, k))
                    sim.spawn(worker(fnode, handle, t_idx, rng),
                              name="hydra-worker")

        life.run_window(list(recorders.values()), fabric)
        return _results(life, recorders, "flock",
                        server_cpu=round(servers[0].cpu.utilization(), 3))


def run_erpc_index(cfg: IndexBenchConfig, *, telemetry=None,
                   spec: Optional[RunSpec] = None) -> Dict[str, RunResult]:
    """90 % get / 10 % scan over eRPC."""
    with run_lifecycle("erpc-index", cfg.warmup_ns, cfg.measure_ns,
                       spec, telemetry) as life:
        sim = life.sim
        cluster = replace(cfg.cluster, n_clients=cfg.n_clients, seed=cfg.seed)
        servers, clients, fabric = build_cluster(sim, cluster)
        index = build_index(cfg)
        server = ErpcServer(sim, servers[0], fabric)
        get_handler, scan_handler = _handlers(index, cfg)
        server.register_handler(RPC_GET, get_handler)
        server.register_handler(RPC_SCAN, scan_handler)

        streams = Streams(cfg.seed)
        recorders = {"get": Recorder(sim), "scan": Recorder(sim)}
        n_endpoints = 0

        def worker(endpoint, server_qp, rng):
            while True:
                key = rng.randrange(cfg.n_keys)
                started = sim.now
                if rng.random() < cfg.get_fraction:
                    response = yield from endpoint.call(
                        server, server_qp, RPC_GET, GET_REQ_BYTES, key)
                    if response is not None:
                        recorders["get"].record(started)
                else:
                    response = yield from endpoint.call(
                        server, server_qp, RPC_SCAN, SCAN_REQ_BYTES, key)
                    if response is not None:
                        recorders["scan"].record(started)

        for c_idx, node in enumerate(clients):
            for t_idx in range(cfg.threads_per_client):
                endpoint = ErpcEndpoint(sim, node, fabric)
                server_qp = server.qp_for_client(n_endpoints)
                n_endpoints += 1
                for k in range(cfg.outstanding):
                    rng = streams.stream("hydra-%d-%d-%d" % (c_idx, t_idx, k))
                    sim.spawn(worker(endpoint, server_qp, rng),
                              name="hydra-worker")

        life.run_window(list(recorders.values()), fabric)
        return _results(life, recorders, "erpc",
                        server_cpu=round(servers[0].cpu.utilization(), 3))


def sweep_index(threads_list, *, n_clients: int = 22, outstanding: int = 8,
                spec: Optional[RunSpec] = None, jobs: int = 1) -> dict:
    """Figs. 16-18: HydraList over FLock vs eRPC across a thread ramp.

    Returns ``{(system, threads): result-dict}``; each result dict is
    exactly what :func:`run_flock_index` / :func:`run_erpc_index` return.
    """
    from .parallel import SweepPoint, run_sweep
    points = []
    for threads in threads_list:
        cfg = IndexBenchConfig(n_clients=n_clients,
                               threads_per_client=threads,
                               outstanding=outstanding)
        points.append(SweepPoint(
            "fig16/flock/t=%d" % threads, run_flock_index, (cfg,),
            {"spec": spec}))
        points.append(SweepPoint(
            "fig16/erpc/t=%d" % threads, run_erpc_index, (cfg,),
            {"spec": spec}))
    merged = iter(run_sweep(points, jobs))
    results = {}
    for threads in threads_list:
        results[("flock", threads)] = next(merged)[1]
        results[("erpc", threads)] = next(merged)[1]
    return results
