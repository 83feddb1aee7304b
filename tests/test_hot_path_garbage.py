"""The work-request hot path leaves no cyclic garbage behind.

Every finished process, the generator it ran and the last timeout it
waited on must be freed by reference counting alone.  Any of them
reaching the cyclic collector means some finished object still points
back at itself, and every collection pass traces it again (see
docs/performance.md, "Allocation rules for the work-request hot path").
"""

import gc
import random

from repro.baselines import ReadClient, UdEndpoint, UdRpcServer
from repro.config import ClusterConfig
from repro.net import build_cluster
from repro.sim import Process, Simulator, Timeout

from conftest import ECHO_RPC, echo_rpc, spawn_flock_echo


def _small_stack():
    """A FLock echo, an RC-read ReadClient and a UD echo sharing one
    small cluster, all closed-loop."""
    sim = Simulator()
    servers, clients, fabric = build_cluster(sim, ClusterConfig(n_clients=2))
    handle = spawn_flock_echo(sim, servers, clients, fabric)

    region = servers[0].memory.register(1 << 16)
    reader = ReadClient(sim, clients[1], fabric, servers[0], region,
                        n_qps=4, outstanding_per_qp=2)
    reader.start()

    ud_server = UdRpcServer(sim, servers[0], fabric)
    ud_server.register_handler(ECHO_RPC, echo_rpc)
    endpoint = UdEndpoint(sim, clients[1], fabric, timeout_ns=50_000.0)
    rng = random.Random(5)

    def ud_worker():
        while True:
            yield sim.timeout(rng.random() * 500.0)
            yield from endpoint.call(ud_server, ud_server.qp_for_client(0),
                                     ECHO_RPC, 64)

    for _ in range(4):
        sim.spawn(ud_worker())
    return sim, handle, reader, endpoint


def test_no_cyclic_garbage_mid_run():
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sim, handle, reader, endpoint = _small_stack()
        sim.run(until=200_000.0)
        # Still referenced: live processes are reachable, not garbage.
        gc.collect()
        leaked = [obj for obj in gc.garbage
                  if isinstance(obj, (Process, Timeout))
                  or type(obj).__name__ == "generator"]
        assert reader.completed > 0
        assert endpoint.completed > 0
        assert sum(ch.tcq.requests_sent for ch in handle.channels) > 0
        assert leaked == [], "%d finished objects reached the collector: %s" % (
            len(leaked), sorted({type(o).__name__ for o in leaked}))
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
