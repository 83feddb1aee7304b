"""Fabric transport model: packet is the only one, and stays clean.

Packet is the default, a stale ``fluid`` mode is rejected both at
construction and from the environment, the kernel knows nothing of
transport models (pinned structurally), and the stepped pipeline keeps
the auditors clean under incast on a hotspot switch.
"""

import inspect

import pytest

from repro.config import (
    ClusterConfig,
    CongestionConfig,
    FIDELITY_ENV,
    FidelityConfig,
    NetConfig,
    resolved_fidelity_mode,
)
from repro.net import build_cluster
from repro.obs.audit import run_audit
from repro.obs.registry import Registry
from repro.sim.core import Simulator


def _cluster(mode, n_clients=4, seed=3, net=None, registry=False):
    """Build a cluster with the transport mode pinned (env ignored)."""
    sim = Simulator()
    reg = None
    if registry:
        reg = Registry()
        sim.metrics = reg
    net = net or NetConfig()
    net.fidelity = FidelityConfig(mode=mode, honor_env=False)
    servers, clients, fabric = build_cluster(
        sim, ClusterConfig(n_clients=n_clients, seed=seed, net=net))
    return sim, servers, clients, fabric, reg


def _drive(sim, clients, server, fabric, sizes, rkeys=(), per_client=1):
    """Spawn ``per_client`` workers per client, each sending ``sizes``."""
    for node in clients:
        for w in range(per_client):
            def worker(node=node):
                for nbytes in sizes:
                    yield from fabric.transfer(
                        node, server, nbytes, 1, 2, rkeys=rkeys)
            sim.spawn(worker())
    sim.run()


class TestModeResolution:
    def test_default_is_packet(self, monkeypatch):
        monkeypatch.delenv(FIDELITY_ENV, raising=False)
        assert FidelityConfig().resolved().mode == "packet"
        assert resolved_fidelity_mode() == "packet"

    def test_fluid_env_is_rejected(self, monkeypatch):
        monkeypatch.setenv(FIDELITY_ENV, "fluid")
        with pytest.raises(ValueError, match=FIDELITY_ENV):
            FidelityConfig().resolved()
        assert resolved_fidelity_mode() == "packet"

    def test_env_ignored_when_not_honored(self, monkeypatch):
        monkeypatch.setenv(FIDELITY_ENV, "fluid")
        cfg = FidelityConfig(mode="packet", honor_env=False)
        assert cfg.resolved().mode == "packet"

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(FIDELITY_ENV, "quantum")
        with pytest.raises(ValueError):
            FidelityConfig().resolved()

    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FidelityConfig(mode="quantum")

    def test_fluid_mode_is_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FidelityConfig(mode="fluid")
        net = NetConfig(fidelity=FidelityConfig(mode="packet",
                                                honor_env=False))
        assert net.fidelity.mode == "packet"


class TestKernelStaysFidelityBlind:
    """The kernel hot loop never learns about transport models: the
    message pipeline lives entirely in net/."""

    def test_simulator_run_has_no_fidelity_branches(self):
        src = inspect.getsource(Simulator.run).lower()
        for token in ("fidelity", "fluid", "transport", "demot"):
            assert token not in src, (
                "Simulator.run grew a %r branch; transport timing "
                "belongs in net/" % token)

    def test_event_loop_module_is_fidelity_free(self):
        src = inspect.getsource(inspect.getmodule(Simulator)).lower()
        assert "fidelity" not in src and "fluid" not in src


def _hotspot_net():
    """A switch tuned so incast heat shows up fast at small scale."""
    return NetConfig(congestion=CongestionConfig(
        enabled=True, honor_env=False, buffer_bytes=10_240,
        ecn_kmin_bytes=2_560, ecn_kmax_bytes=7_680))


class TestAuditsStayClean:
    @pytest.mark.parametrize("mode", ["packet"])
    def test_auditors_pass(self, mode):
        sim, servers, clients, fabric, reg = _cluster(
            mode, n_clients=8, net=_hotspot_net(), registry=True)
        # sizes stay under the 10 KiB hotspot buffer: a message that can
        # never fit retries forever (whole-message tail drop), which is a
        # property of the tiny buffer, not of the pipeline.
        _drive(sim, clients, servers[0], fabric, [4096, 64, 2048],
               rkeys=(3,), per_client=2)
        report = run_audit(sim, reg)
        assert report.ok, report.format()
        assert fabric.switch.total_ecn_marks > 0
