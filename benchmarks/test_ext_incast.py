"""Extension benchmark: N->1 incast on the switched-fabric model.

The paper evaluates FLock on an uncongested testbed; this extension
asks what its design buys once the fabric itself pushes back.  All
12x6x2 = 144 request streams converge on one server egress port with a
shallow (Collie-regime) 10KB buffer.  FLock rides RC — ECN marks become
CNPs, DCQCN paces the shared QPs, the leader holds the doorbell through
the pacing clearance so coalescing *deepens* — and tail drops are
hardware retransmits.  UD (eRPC-style) has no transport-level recovery:
a tail-dropped request is gone until the 5ms RTO, so the synchronized
initial burst permanently silences most workers and the survivors
cannot fill the port.  Acceptance: FLock retains a strictly larger
fraction of its uncongested throughput than UD.
"""

from dataclasses import replace

import pytest

from repro.harness import IncastConfig, RunSpec, run_incast, scorecard_incast

from conftest import record_scorecard, record_table


def test_ext_incast(benchmark):
    cfg = IncastConfig()
    spec = replace(RunSpec.from_env(), audit=True)
    results = benchmark.pedantic(
        lambda: run_incast(cfg, spec=spec), rounds=1, iterations=1)

    rows = []
    for system in ("flock", "ud"):
        base = results["%s_base" % system]
        cong = results["%s_cong" % system]
        rows.append([system,
                     round(base.mops, 2), round(cong.mops, 2),
                     round(results["%s_retention" % system], 3),
                     cong.extras["switch_drops"], cong.extras["ecn_marks"],
                     cong.extras["pfc_pauses"]])
    record_table(
        "Extension: 12->1 incast, %dB buffer, ECN/DCQCN (RC legs)"
        % cfg.congestion.buffer_bytes,
        ["system", "base Mops", "cong Mops", "retention", "drops",
         "marks", "pauses"], rows)

    sc = scorecard_incast(results)
    record_scorecard(sc)
    assert sc.passed, sc.format()

    flock_cong = results["flock_cong"]
    ud_cong = results["ud_cong"]

    # The headline: FLock degrades less than UD under identical incast.
    assert results["flock_retention"] > results["ud_retention"]

    # Congestion is real in both congested legs: the shared egress port
    # tail-drops, and its queue never exceeds the configured buffer.
    for leg in (flock_cong, ud_cong):
        assert leg.extras["congested"]
        assert leg.extras["switch_drops"] > 0
        assert (leg.extras["peak_port_depth_bytes"]
                <= cfg.congestion.buffer_bytes + 1e-6)

    # FLock's rate control actually engaged: marks became CNPs became
    # per-QP throttles.  UD has no reliable flows, so no CNPs.
    assert flock_cong.extras["ecn_marks"] > 0
    assert flock_cong.extras["cnps"] > 0
    assert flock_cong.extras["throttled_qps"] > 0
    assert ud_cong.extras["cnps"] == 0

    # The baseline legs ran on the legacy uncongested fabric.
    assert not results["flock_base"].extras["congested"]
    assert not results["ud_base"].extras["congested"]
