"""Credit grant delivery paths: piggybacked vs dedicated (§5.1/§7),
observed through the ``flock.*`` registry counters."""

from repro.config import ClusterConfig, FlockConfig
from repro.flock import FlockNode, coalesced_size
from repro.net import build_cluster
from repro.obs import Registry
from repro.sim import Simulator


def make(credit_batch=8, handler_ns=100.0):
    sim = Simulator()
    # Components cache their instruments at construction: install the
    # registry first.
    sim.metrics = registry = Registry()
    servers, clients, fabric = build_cluster(sim, ClusterConfig(n_clients=1))
    cfg = FlockConfig(qps_per_handle=1, credit_batch=credit_batch,
                      credit_renew_threshold=max(1, credit_batch // 2))
    server = FlockNode(sim, servers[0], fabric, cfg)
    server.fl_reg_handler(1, lambda req: (64, None, handler_ns))
    client = FlockNode(sim, clients[0], fabric, cfg, seed=1)
    handle = client.fl_connect(server, n_qps=1)
    return sim, server, client, handle, registry


class TestGrantPaths:
    def test_heavy_pipeline_piggybacks_grants(self):
        """With a deep server-side backlog (slow handlers), grants ride
        the response messages instead of going out dedicated."""
        sim, server, client, handle, registry = make(credit_batch=8,
                                                     handler_ns=3000.0)

        def worker(tid):
            for _ in range(30):
                yield from client.fl_call(handle, tid, 1, 64)

        for tid in range(8):
            sim.spawn(worker(tid))
        sim.run(until=20_000_000)
        assert registry.counter("flock.grants.piggybacked").value > 0
        # Grants arrived and kept traffic flowing well beyond the
        # bootstrap batch.
        assert handle.rpcs_completed == 240

    def test_serial_sender_gets_dedicated_grants(self):
        """A single serial closed loop drains the ring before the
        renewal reaches the scheduler — grants go out dedicated."""
        sim, server, client, handle, registry = make(credit_batch=4)

        def worker():
            for _ in range(20):
                yield from client.fl_call(handle, 0, 1, 64)

        sim.spawn(worker())
        sim.run(until=20_000_000)
        assert handle.rpcs_completed == 20
        assert registry.counter("flock.grants.dedicated").value > 0

    def test_grants_respect_batch_size(self):
        sim, server, client, handle, _registry = make(credit_batch=4)
        channel = handle.channels[0]
        grants = []
        original = channel.credits.on_grant

        def spy(grant):
            grants.append(grant.credits)
            original(grant)

        channel.credits.on_grant = spy

        def worker():
            for _ in range(12):
                yield from client.fl_call(handle, 0, 1, 64)

        sim.spawn(worker())
        sim.run(until=20_000_000)
        assert grants
        assert all(g == 4 for g in grants)  # C per grant, never declined


class TestCoalescingCounters:
    def test_counters_see_coalescing_and_scheduling(self):
        sim = Simulator()
        sim.metrics = registry = Registry()
        servers, clients, fabric = build_cluster(sim,
                                                 ClusterConfig(n_clients=1))
        cfg = FlockConfig(qps_per_handle=2, sched_interval_ns=150_000.0,
                          thread_sched_interval_ns=150_000.0)
        server = FlockNode(sim, servers[0], fabric, cfg)
        server.fl_reg_handler(1, lambda req: (64, None, 100.0))
        client = FlockNode(sim, clients[0], fabric, cfg, seed=1)
        handle = client.fl_connect(server, n_qps=2)

        def worker(tid):
            for _ in range(20):
                yield from client.fl_call(handle, tid, 1, 64)

        for tid in range(8):
            sim.spawn(worker(tid))
        sim.run(until=3_000_000)
        assert registry.counter("flock.client.messages").value > 0
        # Every RPC rode exactly one coalesced message.
        assert registry.counter("flock.client.rpcs_coalesced").value == 160
        degree = registry.histogram("flock.coalescing_degree")
        assert degree.total == 160
        # Byte sizes match the message-layout formula.
        assert registry.histogram("flock.message_bytes").min \
            >= coalesced_size([64])
