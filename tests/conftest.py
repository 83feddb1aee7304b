"""Shared test helpers."""

from __future__ import annotations

import random

import pytest

from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode
from repro.net import build_cluster
from repro.sim import Simulator


def run_gen(sim: Simulator, gen, until=None):
    """Spawn a generator process, run the sim, return its value."""
    proc = sim.spawn(gen)
    if until is None:
        sim.run()
    else:
        sim.run(until=until)
    if not proc.processed:
        raise AssertionError("process did not finish by t=%r" % sim.now)
    return proc.value


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def small_cluster(sim):
    """(sim, server node, client nodes, fabric) with 2 clients."""
    servers, clients, fabric = build_cluster(sim, ClusterConfig(n_clients=2))
    return sim, servers[0], clients, fabric


ECHO_RPC = 1


def echo_rpc(request):
    """Echo handler: a 64 B response after 200 ns of server CPU."""
    return 64, None, 200.0


def spawn_flock_echo(sim: Simulator, servers, clients, fabric,
                     threads: int = 4, outstanding: int = 2, seed: int = 3):
    """Closed-loop 64 B FLock echo RPCs from ``clients[0]`` to
    ``servers[0]`` over two shared QPs; returns the client's handle."""
    rng = random.Random(seed)
    server = FlockNode(sim, servers[0], fabric, FlockConfig())
    server.fl_reg_handler(ECHO_RPC, echo_rpc)
    fnode = FlockNode(sim, clients[0], fabric, FlockConfig(), seed=seed)
    handle = fnode.fl_connect(server, n_qps=2)

    def worker(thread_id):
        while True:
            yield sim.timeout(rng.random() * 500.0)
            yield from fnode.fl_call(handle, thread_id, ECHO_RPC, 64)

    for thread_id in range(threads):
        for _ in range(outstanding):
            sim.spawn(worker(thread_id))
    return handle
