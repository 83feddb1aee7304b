"""Kernel microbenchmark: the fast-path refactor, regression-gated.

Runs three pure-kernel workloads — zero-delay dispatch, completion
chains, and positive-delay timers — on the live kernel and on the
frozen pre-refactor snapshot (:mod:`seed_kernel`), plus one small
component-level run with observability on and off.  The headline
contract is the zero-delay workload: CQ completions, credit returns,
and same-tick wakeups are the dominant event class in every figure, and
the ready-deque fast path must keep them **≥ 2× the seed kernel's
events/sec**.  The other ratios and the instrumented overhead are gated
through the bench store (``BENCH_kernel.json``) like the figures.

Measurement notes: trials interleave seed and live kernels and take the
best of several rounds, which cancels most frequency drift; ratios are
far stabler than absolute events/sec, so absolutes are recorded as
``info`` metrics while only the ratios gate (with wide tolerances —
these are wall-clock numbers, unlike the virtual-time figures).
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

import seed_kernel

from repro.harness import MicrobenchConfig, RunSpec, run_flock
from repro.obs import Scorecard, SimProfile, Telemetry
from repro.sim import Simulator

from conftest import record_scorecard, record_table

#: Events per workload trial; scaled down with REPRO_BENCH_SCALE so the
#: CI smoke lane stays cheap (ratios survive scaling, absolutes do not,
#: and the bench store already skips cross-scale comparisons).
EVENTS = max(20_000, int(300_000 * RunSpec.from_env().scale))
ROUNDS = 4


def _zero_delay(sim, n):
    """The fast-path workload: every yield is a same-tick trigger."""
    def proc():
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(0.0)
    sim.spawn(proc())


def _completions(sim, n):
    """Event allocation + succeed + wait, the CQ/credit idiom."""
    def proc():
        event = sim.event
        for i in range(n):
            ev = event()
            ev.succeed(i)
            yield ev
    sim.spawn(proc())


def _timers(sim, n):
    """Positive delays: the heap still pays, but less per entry."""
    def proc():
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(10.0)
    sim.spawn(proc())


WORKLOADS = [
    ("zero_delay", _zero_delay),
    ("completions", _completions),
    ("timers", _timers),
]


def _events_per_sec(sim_cls, workload, n):
    sim = sim_cls()
    workload(sim, n)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert sim.events_processed >= n
    return sim.events_processed / elapsed


def _best_of(sim_cls, workload):
    return max(_events_per_sec(sim_cls, workload, EVENTS)
               for _ in range(ROUNDS))


def _interleaved_speedups():
    """Best-of events/sec per kernel, seed/live trials interleaved."""
    rates = {}
    for name, workload in WORKLOADS:
        best_seed = best_live = 0.0
        for _ in range(ROUNDS):
            best_seed = max(best_seed, _events_per_sec(
                seed_kernel.Simulator, workload, EVENTS))
            best_live = max(best_live, _events_per_sec(
                Simulator, workload, EVENTS))
        rates[name] = (best_seed, best_live)
    return rates


OBS_CFG = dict(n_clients=3, threads_per_client=8, outstanding=2)


def _obs_overhead():
    """Full-stack events/sec with telemetry off vs on (best-of)."""
    best_off = best_on = 0.0
    for _ in range(ROUNDS):
        for telemetry, tag in ((None, "off"), (Telemetry(), "on")):
            t0 = time.perf_counter()
            result = run_flock(MicrobenchConfig(**OBS_CFG),
                               telemetry=telemetry)
            rate = result.extras["events"] / (time.perf_counter() - t0)
            if tag == "off":
                best_off = max(best_off, rate)
            else:
                best_on = max(best_on, rate)
    return best_off, best_on


def _events_per_sec_profiled(workload, n):
    """One trial through ``run_profiled`` with a live SimProfile."""
    sim = Simulator()
    workload(sim, n)
    prof = SimProfile(0.0, 1.0, n_windows=1)
    t0 = time.perf_counter()
    sim.run_profiled(prof)
    elapsed = time.perf_counter() - t0
    assert sim.events_processed >= n
    assert prof.total_dispatched == sim.events_processed
    return sim.events_processed / elapsed


def _profiled_overhead():
    """Plain vs profiled kernel loop on zero-delay dispatch (best-of,
    interleaved).  This is the *opt-in* cost of the cost observatory:
    two perf_counter_ns calls plus one memoized dict hit per event."""
    best_off = best_on = 0.0
    for _ in range(ROUNDS):
        best_off = max(best_off,
                       _events_per_sec(Simulator, _zero_delay, EVENTS))
        best_on = max(best_on,
                      _events_per_sec_profiled(_zero_delay, EVENTS))
    return best_off, best_on


def test_kernel_fast_path(benchmark):
    rates = benchmark.pedantic(_interleaved_speedups,
                               rounds=1, iterations=1)
    obs_off, obs_on = _obs_overhead()
    overhead = obs_off / obs_on
    prof_off, prof_on = _profiled_overhead()
    prof_overhead = prof_off / prof_on

    rows = [[name, round(seed_r / 1e3), round(live_r / 1e3),
             round(live_r / seed_r, 2)]
            for name, (seed_r, live_r) in rates.items()]
    rows.append(["obs on (full stack)", round(obs_off / 1e3),
                 round(obs_on / 1e3), round(obs_on / obs_off, 2)])
    rows.append(["run_profiled (zero delay)", round(prof_off / 1e3),
                 round(prof_on / 1e3), round(prof_on / prof_off, 2)])
    record_table("Kernel microbench: events/sec, seed vs fast path",
                 ["workload", "seed kev/s", "live kev/s", "ratio"], rows)

    sc = Scorecard(figure="kernel", title="DES kernel fast path")
    for name, (seed_r, live_r) in rates.items():
        speedup = live_r / seed_r
        # Wall-clock ratios: wide tolerances, machine-to-machine noise
        # is real.  Absolute rates are informational only.
        sc.add_metric("speedup_" + name, speedup, better="higher",
                      rtol=0.30, unit="x")
        sc.add_metric("events_per_sec_" + name, live_r, better="info",
                      unit="ev/s")
    sc.add_metric("obs_on_overhead", overhead, better="lower",
                  rtol=0.60, unit="x")
    sc.add_metric("profiled_overhead", prof_overhead, better="lower",
                  rtol=0.60, unit="x")
    sc.add_metric("events_per_sec_profiled", prof_on, better="info",
                  unit="ev/s")
    sc.add_check("zero_delay_speedup_over_2x",
                 rates["zero_delay"][1] >= 2.0 * rates["zero_delay"][0],
                 "ready-deque dispatch must double the seed kernel")
    record_scorecard(sc)

    # The acceptance gate: same-tick dispatch at ≥2× the seed kernel.
    seed_r, live_r = rates["zero_delay"]
    assert live_r >= 2.0 * seed_r, (
        "zero-delay fast path only %.2fx the seed kernel"
        % (live_r / seed_r))
    # Secondary wins, asserted with slack below their measured ~1.6x /
    # ~1.5x so machine variance does not flake the suite.
    seed_r, live_r = rates["completions"]
    assert live_r >= 1.25 * seed_r
    seed_r, live_r = rates["timers"]
    assert live_r >= 1.15 * seed_r
    # Instrumentation is opt-in; when it is on, the whole point of the
    # hoisting is that the overhead stays bounded.
    assert overhead < 3.0, "telemetry costs %.2fx" % overhead
    # run_profiled brackets every dispatch with perf_counter_ns and
    # classifies the callback; on the worst case (zero-delay, where the
    # loop body is tiny) that measures ~3.5x, and figure runs — whose
    # per-event work dwarfs the bracketing — pay far less.  Gate the
    # ceiling so the instrumented loop never grows pathological.
    assert prof_overhead < 6.0, (
        "run_profiled costs %.2fx on zero-delay" % prof_overhead)
