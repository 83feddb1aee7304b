"""Fabric transport-model benchmark: fluid vs packet, regression-gated.

An uncongested 512-node fig12-style sweep — every client node hammering
one server with QP/MTT-thrashing raw reads — run twice, once per
transport model, under the simulation cost observatory.  The headline
contract of the fluid model is the **fabric-owned event
ratio**: the fluid model must dispatch ≥ 10× fewer events attributed to
the fabric-side components (fabric/rnic/pcie/switch/flow, per the
simprof census) than the stepped packet model, while delivering exactly
the same messages.  Wall-clock throughput rides along as a secondary
gate with the usual machine-noise tolerances.

Both ratios land in ``BENCH_fabric.json`` and gate against the
committed baseline through the bench store like every figure.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro.config import ClusterConfig, FidelityConfig, NetConfig
from repro.harness import RunSpec
from repro.net import build_cluster
from repro.obs import Scorecard, SimProfile
from repro.sim import Simulator

from conftest import record_scorecard, record_table

#: Census buckets owned by the fabric pipeline (the event classes the
#: fluid model is allowed to consolidate).  Spawns/idle stay app/kernel.
FABRIC_OWNED = ("fabric", "switch", "rnic", "pcie", "flow")

#: 512 nodes at full scale; the smoke lane shrinks with the usual knob
#: (ratios survive scaling, and the bench store skips cross-scale
#: comparisons anyway).
N_NODES = max(64, int(512 * RunSpec.from_env().scale))
PER_CLIENT = 4
NBYTES = 4096
#: Distinct QP/rkey working set, sized past the RNIC caches so the
#: stepped path pays real PCIe state-fetch churn per message.
DISTINCT_QPS = 128
ROUNDS = 3


def _run_sweep(mode):
    """One full sweep under ``mode``; returns census + wall numbers."""
    sim = Simulator()
    net = NetConfig()
    net.fidelity = FidelityConfig(mode=mode, honor_env=False)
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=N_NODES - 1, seed=7, net=net))
    for ci, node in enumerate(clients):
        def worker(node=node, ci=ci):
            for i in range(PER_CLIENT):
                q = (ci * PER_CLIENT + i) % DISTINCT_QPS + 10
                yield from fabric.transfer(
                    node, servers[0], NBYTES, q, q + 1000,
                    rkeys=(3 * q, 3 * q + 1, 3 * q + 2))
        sim.spawn(worker())
    prof = SimProfile(0.0, 1.0, n_windows=1)
    t0 = time.perf_counter()
    sim.run_profiled(prof)
    wall = time.perf_counter() - t0
    fabric_events = sum(n for key, n in prof.dispatched.items()
                        if key.split(";", 1)[0] in FABRIC_OWNED)
    return {
        "wall_s": wall,
        "total_events": prof.total_dispatched,
        "fabric_events": fabric_events,
        "delivered": fabric.messages_delivered,
        "dropped": fabric.messages_dropped,
    }


def _best_of(mode):
    """Best wall clock over a few rounds; census numbers are
    deterministic, so any round's copy serves."""
    best = None
    for _ in range(ROUNDS):
        trial = _run_sweep(mode)
        if best is None or trial["wall_s"] < best["wall_s"]:
            best = trial
    return best


def test_fabric_transport_models(benchmark):
    packet = benchmark.pedantic(lambda: _best_of("packet"),
                                rounds=1, iterations=1)
    fluid = _best_of("fluid")

    fabric_ratio = packet["fabric_events"] / fluid["fabric_events"]
    total_ratio = packet["total_events"] / fluid["total_events"]
    wall_speedup = packet["wall_s"] / fluid["wall_s"]

    rows = [
        [mode, r["total_events"], r["fabric_events"], r["delivered"],
         round(r["wall_s"] * 1e3, 1)]
        for mode, r in (("packet", packet), ("fluid", fluid))
    ]
    rows.append(["ratio", round(total_ratio, 2), round(fabric_ratio, 2),
                 "-", round(wall_speedup, 2)])
    record_table(
        "Fabric transport models: %d-node uncongested sweep" % N_NODES,
        ["model", "events", "fabric-owned", "delivered", "wall ms"],
        rows)

    sc = Scorecard(figure="fabric", title="Fluid vs packet transport")
    # Event ratios come from the deterministic census: tight tolerance.
    sc.add_metric("fabric_event_ratio", fabric_ratio, better="higher",
                  rtol=0.20, unit="x")
    sc.add_metric("total_event_ratio", total_ratio, better="higher",
                  rtol=0.20, unit="x")
    # Wall clock is machine-dependent: wide tolerance, absolutes info.
    sc.add_metric("wall_speedup", wall_speedup, better="higher",
                  rtol=0.40, unit="x")
    sc.add_metric("packet_events_per_sec",
                  packet["total_events"] / packet["wall_s"],
                  better="info", unit="ev/s")
    sc.add_metric("fluid_events_per_sec",
                  fluid["total_events"] / fluid["wall_s"],
                  better="info", unit="ev/s")
    sc.add_metric("messages_delivered", float(packet["delivered"]),
                  better="equal", atol=0.0)
    sc.add_check(
        "fluid_10x_fewer_fabric_events", fabric_ratio >= 10.0,
        "the fluid model consolidates the stepped pipeline's per-packet "
        "and per-cache-miss events into O(1) per transfer")
    sc.add_check(
        "delivered_counts_identical",
        packet["delivered"] == fluid["delivered"]
        and packet["dropped"] == fluid["dropped"] == 0,
        "both models conserve the same delivered messages, loss-free")
    record_scorecard(sc)

    # The acceptance gate: ≥10× fewer fabric-owned dispatched events.
    assert fabric_ratio >= 10.0, (
        "fluid model only cut fabric-owned events by %.2fx" % fabric_ratio)
    assert packet["delivered"] == fluid["delivered"] == \
        PER_CLIENT * (N_NODES - 1)
    # The fluid path must also be genuinely cheaper end to end, with
    # slack for shared-runner noise below the measured ~5x.
    assert wall_speedup >= 1.5, (
        "fluid wall-clock speedup only %.2fx" % wall_speedup)
