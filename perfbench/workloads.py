"""One workload run of the host-cost benchmark, in a fresh process.

``run.py`` starts this file as a fresh process for each repetition.
The process imports ``repro`` from the checkout's ``src/`` (the import
time is part of set-up), builds and runs every simulation point of one
workload through the library's public API, checks the simulated
outputs, and prints one JSON line with the host timings and outputs::

    python3 perfbench/workloads.py --workload flock_shared_qp --seed 1
    python3 perfbench/workloads.py --workload incast_congested --seed 1 \\
        --traced --trace-out perfbench/out/incast.trace.json
    python3 perfbench/workloads.py --calibrate

A *point* is one simulation: a fresh ``Simulator``, ``build_cluster``,
endpoints and closed-loop workers, a warmup plus a measurement window in
virtual time, then the checks.  Workers re-issue on completion; only
completions inside the measurement window enter the latency summary,
while every completion counts as a simulated operation.

Host time is split by the benchmark's own spans, around the public calls
it makes: ``setup.cluster`` (``build_cluster``), ``setup.endpoints``
(nodes, handles, QPs, handler registration, worker spawn),
``run.simulate`` (``Simulator.run``) and ``check.verify`` (audit,
digest, reference comparison).  A traced run swaps ``Simulator.run`` for
``Simulator.run_profiled`` feeding a ``SimProfile`` census, which
charges each dispatched event's host time to the model component that
owns it; simulated results are identical either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import traceback
from dataclasses import asdict
from time import perf_counter

T_PROCESS = perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

WORKLOADS = ("flock_shared_qp", "rc_read_thrash", "incast_congested")

#: Census windows of the traced run, fixed so ``REPRO_SLO_WINDOWS``
#: cannot change the profile's shape.
PROFILE_WINDOWS = 10

ECHO_RPC = 1


def echo_handler(resp_size, handler_ns):
    def handler(request):
        return resp_size, None, handler_ns
    return handler


class Spans:
    """Host-time spans kept in memory and written when the run ends."""

    def __init__(self):
        self.records = []

    def open(self, name, parent=None, **attrs):
        span = {"id": len(self.records), "parent": parent, "name": name,
                "start_s": perf_counter() - T_PROCESS, "end_s": None}
        span.update(attrs)
        self.records.append(span)
        return span

    def close(self, span):
        span["end_s"] = perf_counter() - T_PROCESS
        return span["end_s"] - span["start_s"]


class Window:
    """Closed-loop completion recorder for one point."""

    def __init__(self, sim, t0, t1):
        self.sim = sim
        self.t0 = t0
        self.t1 = t1
        self.ops = 0
        self.latencies = []

    def record(self, started):
        self.ops += 1
        now = self.sim.now
        if self.t0 <= now < self.t1:
            self.latencies.append(now - started)


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

def _pinned_net(repro, **congestion):
    """Packet fidelity and congestion settings that no env knob overrides."""
    cfg = repro.config
    return cfg.NetConfig(
        congestion=cfg.CongestionConfig(honor_env=False, **congestion),
        fidelity=cfg.FidelityConfig(mode="packet", honor_env=False))


class FlockEcho:
    """Closed-loop FLock echo RPCs from every client node to server0.

    ``threads`` application threads per node share ``qps`` RC QPs behind
    one connection handle, each thread keeping ``outstanding`` RPCs in
    flight with a uniform think-time jitter.
    """

    def __init__(self, repro, *, threads, outstanding, qps, req_size,
                 resp_size, handler_ns, jitter_ns):
        self.repro = repro
        self.threads = threads
        self.outstanding = outstanding
        self.qps = qps
        self.req_size = req_size
        self.resp_size = resp_size
        self.handler_ns = handler_ns
        self.jitter_ns = jitter_ns

    def build(self, sim, servers, clients, fabric, window, rng):
        FlockNode = self.repro.flock.FlockNode
        # The fig6-12 runners' scheduler cadence: converges in the warmup.
        fcfg = self.repro.config.FlockConfig(
            sched_interval_ns=150_000.0, thread_sched_interval_ns=150_000.0)
        server = FlockNode(sim, servers[0], fabric, fcfg)
        server.fl_reg_handler(ECHO_RPC, echo_handler(self.resp_size,
                                                     self.handler_ns))
        self.server = server
        self.handles = []
        jitter = self.jitter_ns
        size = self.req_size

        def worker(fnode, handle, thread_id, wrng):
            while True:
                yield sim.timeout(wrng.random() * jitter)
                started = sim.now
                yield from fnode.fl_call(handle, thread_id, ECHO_RPC, size)
                window.record(started)

        for node in clients:
            fnode = FlockNode(sim, node, fabric, fcfg,
                              seed=rng.getrandbits(31))
            handle = fnode.fl_connect(server, n_qps=self.qps)
            self.handles.append(handle)
            for t_idx in range(self.threads):
                for _ in range(self.outstanding):
                    sim.spawn(worker(fnode, handle, t_idx,
                                     random.Random(rng.getrandbits(48))),
                              name="perfbench-flock")

    def counters(self, out):
        for handle in self.handles:
            for ch in handle.channels:
                out["flock.requests_sent"] += ch.tcq.requests_sent
                out["flock.messages_sent"] += ch.tcq.messages_sent
                out["flock.leader_cycles"] += ch.tcq.leader_cycles
                out["flock.credit_dry_waits"] += ch.credits.dry_waits
        out["flock.active_qps"] += self.server.server.total_active_qps


class RcReads:
    """Closed-loop one-sided RC reads from every client node to server0.

    Each client starts its readers at a seed-drawn offset in
    ``[0, stagger_ns)``, so seeds change the interleaving of requests at
    the server RNIC's QP cache.
    """

    def __init__(self, repro, *, qps_per_client, read_size, outstanding,
                 stagger_ns):
        self.repro = repro
        self.qps_per_client = qps_per_client
        self.read_size = read_size
        self.outstanding = outstanding
        self.stagger_ns = stagger_ns

    def build(self, sim, servers, clients, fabric, window, rng):
        ReadClient = self.repro.baselines.ReadClient
        region = servers[0].memory.register(1 << 20)

        def record(started, now):
            window.record(started)

        def delayed_start(reader, delay):
            yield sim.timeout(delay)
            reader.start()

        for node in clients:
            reader = ReadClient(sim, node, fabric, servers[0], region,
                                n_qps=self.qps_per_client,
                                read_size=self.read_size,
                                outstanding_per_qp=self.outstanding)
            reader.on_complete = record
            sim.spawn(delayed_start(reader, rng.random() * self.stagger_ns),
                      name="perfbench-read-start")

    def counters(self, out):
        pass


class UdEcho:
    """Closed-loop UD echo RPCs, one endpoint per client thread, with an
    application retransmission timeout (eRPC-style software reliability)."""

    def __init__(self, repro, *, threads, outstanding, req_size, resp_size,
                 handler_ns, jitter_ns, timeout_ns):
        self.repro = repro
        self.threads = threads
        self.outstanding = outstanding
        self.req_size = req_size
        self.resp_size = resp_size
        self.handler_ns = handler_ns
        self.jitter_ns = jitter_ns
        self.timeout_ns = timeout_ns

    def build(self, sim, servers, clients, fabric, window, rng):
        baselines = self.repro.baselines
        server = baselines.UdRpcServer(sim, servers[0], fabric)
        server.register_handler(ECHO_RPC, echo_handler(self.resp_size,
                                                       self.handler_ns))
        self.endpoints = []
        jitter = self.jitter_ns
        size = self.req_size

        def worker(endpoint, server_qp, wrng):
            while True:
                yield sim.timeout(wrng.random() * jitter)
                started = sim.now
                response = yield from endpoint.call(server, server_qp,
                                                    ECHO_RPC, size)
                if response is not None:
                    window.record(started)

        for node in clients:
            for _ in range(self.threads):
                endpoint = baselines.UdEndpoint(sim, node, fabric,
                                                timeout_ns=self.timeout_ns)
                server_qp = server.qp_for_client(len(self.endpoints))
                self.endpoints.append(endpoint)
                for _ in range(self.outstanding):
                    sim.spawn(worker(endpoint, server_qp,
                                     random.Random(rng.getrandbits(48))),
                              name="perfbench-ud")

    def counters(self, out):
        out["ud.lost_requests"] += sum(e.lost_requests
                                       for e in self.endpoints)


#: The fig6-12 incast switch: a 10 KB shallow buffer per egress port
#: with ECN marking and DCQCN, so the 12->1 fan-in overflows it.
INCAST_SWITCH = dict(enabled=True, buffer_bytes=10_240,
                     ecn_kmin_bytes=2_560, ecn_kmax_bytes=7_680,
                     pfc_xoff_bytes=7_680, pfc_xon_bytes=2_560)


def workload_points(repro, name):
    """``[(point name, n_clients, NetConfig, traffic, warmup_ns,
    measure_ns)]`` for one workload.

    Why these points (see README.md for the layer mapping):

    * ``flock_shared_qp`` is the fig9/fig10 FLock point: every FLock
      figure runs this path, and its host time is mostly flock, rnic and
      verbs.  The warmup covers two QP-scheduler intervals so the
      measured regime is the converged one.
    * ``rc_read_thrash`` bypasses FLock and the server CPU: one-sided
      reads below (352 QPs) and above (2816 QPs) the 560-entry RNIC QP
      cache, loading verbs reads, the cache and PCIe state fetches.
    * ``incast_congested`` is the only workload with the switch on:
      12->1 fan-in into a shallow ECN/DCQCN buffer, with a FLock RC leg
      and a UD leg whose losses are the application's to recover.
    """
    if name == "flock_shared_qp":
        drv = FlockEcho(repro, threads=32, outstanding=8, qps=32,
                        req_size=64, resp_size=64, handler_ns=100.0,
                        jitter_ns=300.0)
        return [("flock-t32-o8", 22, _pinned_net(repro), drv,
                 300_000.0, 150_000.0)]
    if name == "rc_read_thrash":
        return [("read-qps%d" % (per * 22), 22, _pinned_net(repro),
                 RcReads(repro, qps_per_client=per, read_size=16,
                         outstanding=2, stagger_ns=2_000.0),
                 200_000.0, measure)
                for per, measure in ((16, 500_000.0), (128, 800_000.0))]
    if name == "incast_congested":
        net = _pinned_net(repro, **INCAST_SWITCH)
        flock = FlockEcho(repro, threads=6, outstanding=2, qps=2,
                          req_size=512, resp_size=64, handler_ns=100.0,
                          jitter_ns=200.0)
        ud = UdEcho(repro, threads=6, outstanding=2, req_size=512,
                    resp_size=64, handler_ns=100.0, jitter_ns=200.0,
                    timeout_ns=5_000_000.0)
        return [("incast-flock-rc", 12, net, flock, 300_000.0, 500_000.0),
                ("incast-ud", 12, net, ud, 300_000.0, 500_000.0)]
    raise ValueError("unknown workload %r" % name)


# ---------------------------------------------------------------------------
# Running and checking one point
# ---------------------------------------------------------------------------

def layer_counters(repro, sim, fabric, servers, traffic):
    """Model counters read from the layer objects' public attributes."""
    out = {key: 0 for key in (
        "flock.requests_sent", "flock.messages_sent", "flock.leader_cycles",
        "flock.credit_dry_waits", "flock.active_qps", "verbs.sends_posted",
        "cq.cqes", "rnic.server_qp_cache_hits",
        "rnic.server_qp_cache_misses", "rnic.packets_tx",
        "pcie.reads_issued", "fabric.messages_delivered",
        "fabric.messages_dropped", "switch.drops", "switch.ecn_marks",
        "switch.cnps", "ud.lost_requests")}
    QueuePair = repro.verbs.QueuePair
    CompletionQueue = repro.verbs.CompletionQueue
    Rnic = repro.hw.Rnic
    for comp in sim.components:
        if isinstance(comp, QueuePair):
            out["verbs.sends_posted"] += comp.sends_posted
        elif isinstance(comp, CompletionQueue):
            out["cq.cqes"] += comp.pushed
        elif isinstance(comp, Rnic):
            out["rnic.packets_tx"] += comp.packets_tx
            out["pcie.reads_issued"] += comp.pcie.reads_issued
    for server in servers:
        stats = server.rnic.qp_cache.stats
        out["rnic.server_qp_cache_hits"] += stats.hits
        out["rnic.server_qp_cache_misses"] += stats.misses
    out["fabric.messages_delivered"] = fabric.messages_delivered
    out["fabric.messages_dropped"] = fabric.messages_dropped
    if fabric.switch is not None:
        out["switch.drops"] = fabric.switch.total_drops
        out["switch.ecn_marks"] = fabric.switch.total_ecn_marks
        out["switch.cnps"] = fabric.cnps_delivered
    traffic.counters(out)
    return out


def normalised(outputs):
    """Outputs as they read back from JSON, for exact comparison."""
    return json.loads(json.dumps(outputs, sort_keys=True))


def digest_of(outputs):
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_point(repro, point, seed, spans, reference, profile_windows=None):
    """Build, run and check one point.  Returns its result record."""
    name, n_clients, net, traffic, warmup, measure = point
    rng = random.Random("%s/%d" % (name, seed))
    root = spans.open("point", point=name)
    record = {"name": name, "errors": [], "reference": "none"}
    prof = None
    try:
        span = spans.open("setup.cluster", root["id"], point=name)
        sim = repro.sim.Simulator()
        cluster = repro.config.ClusterConfig(
            n_clients=n_clients, seed=rng.getrandbits(31), net=net)
        servers, clients, fabric = repro.net.build_cluster(sim, cluster)
        record["setup.cluster_s"] = spans.close(span)

        span = spans.open("setup.endpoints", root["id"], point=name)
        window = Window(sim, warmup, warmup + measure)
        traffic.build(sim, servers, clients, fabric, window, rng)
        record["setup.endpoints_s"] = spans.close(span)

        span = spans.open("run.simulate", root["id"], point=name)
        if profile_windows:
            prof = repro.obs.simprof.SimProfile(warmup, warmup + measure,
                                                n_windows=profile_windows)
            sim.run_profiled(prof, until=warmup + measure)
        else:
            sim.run(until=warmup + measure)
        record["run.simulate_s"] = spans.close(span)

        span = spans.open("check.verify", root["id"], point=name)
        outputs = normalised({
            "ops": window.ops,
            "ops_window": len(window.latencies),
            "events": sim.events_processed,
            "latency_ns": repro.sim.summarize_latencies(window.latencies),
            "counters": layer_counters(repro, sim, fabric, servers, traffic),
        })
        report = repro.obs.run_audit(sim, None)
        if not report.ok:
            record["errors"].append("audit: " + report.format(5))
        if window.ops == 0 or not window.latencies:
            record["errors"].append("no operation completed")
        if reference is not None:
            if outputs == reference.get(name):
                record["reference"] = "match"
            else:
                record["reference"] = "mismatch"
                record["errors"].append("outputs differ from reference")
        record["outputs"] = outputs
        record["digest"] = digest_of(outputs)
        record["check.verify_s"] = spans.close(span)
        if prof is not None:
            prof.finish(sim)
            record["profile"] = prof.report()
            record["census"] = census_of(prof)
    except Exception as exc:  # a point that raises is a failed point
        record["errors"].append("%s: %s" % (type(exc).__name__, exc))
        record["traceback"] = traceback.format_exc()
    spans.close(root)
    record["ok"] = not record["errors"]
    return record


def census_of(prof):
    """Per-component host time and events of one profiled point."""
    census = {"host_s": prof.total_host_ns * 1e-9,
              "dispatched": prof.total_dispatched,
              "cancelled": sum(prof.cancelled.values()),
              # Events fired with no listener: the kernel's wasted work.
              "idle": (prof.dispatched.get("kernel;idle", 0)
                       + prof.dispatched.get("timers;timer", 0)),
              "self_s": {}, "events": {}}
    for key, ns in prof.host_ns.items():
        comp = key.split(";", 1)[0]
        census["self_s"][comp] = census["self_s"].get(comp, 0.0) + ns * 1e-9
        census["events"][comp] = (census["events"].get(comp, 0)
                                  + prof.dispatched.get(key, 0))
    return census


def load_reference(workload, seed):
    try:
        with open(REFERENCE_FILE) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit("perfbench: no %s/repro in this checkout" % SRC)
    sys.path.insert(0, SRC)
    import repro
    import repro.baselines
    import repro.config
    import repro.flock
    import repro.hw
    import repro.net
    import repro.obs
    import repro.obs.simprof
    import repro.sim
    import repro.verbs
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise SystemExit("perfbench: imported repro from %s" % where)
    return repro


def run_workload(workload, seed, traced=False, use_reference=True):
    t0 = perf_counter()
    repro = import_repro()
    import_s = perf_counter() - t0
    spans = Spans()
    reference = load_reference(workload, seed) if use_reference else None
    points = workload_points(repro, workload)
    records = [run_point(repro, point, seed, spans, reference,
                         PROFILE_WINDOWS if traced else None)
               for point in points]

    def total(key):
        return sum(r.get(key, 0.0) for r in records)

    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "import_s": import_s,
        "setup_s": import_s + total("setup.cluster_s")
        + total("setup.endpoints_s"),
        "setup.cluster_s": total("setup.cluster_s"),
        "setup.endpoints_s": total("setup.endpoints_s"),
        "run.simulate_s": total("run.simulate_s"),
        "check.verify_s": total("check.verify_s"),
        "ops": sum(r["outputs"]["ops"] for r in records if "outputs" in r),
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "reference": sorted({r["reference"] for r in records}),
        "points": records,
        "spans": spans.records,
        "config": resolved_config(repro, points),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return result


def resolved_config(repro, points):
    """What the points ran with, after every default was applied."""
    env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    return {
        "python": sys.version.split()[0],
        "repro_env": env,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "fidelity_env_resolves_to": repro.config.resolved_fidelity_mode(),
        "points": [{
            "name": name,
            "n_clients": n_clients,
            "warmup_ns": warmup,
            "measure_ns": measure,
            "net": asdict(net),
            "traffic": {k: v for k, v in vars(traffic).items()
                       if isinstance(v, (int, float, str))},
        } for name, n_clients, net, traffic, warmup, measure in points],
    }


# ---------------------------------------------------------------------------
# Kernel calibration
# ---------------------------------------------------------------------------

def calibrate(repeats=3, n_procs=64, steps=1_000):
    """Events/s of a fixed pure-kernel storm through the public API.

    ``n_procs`` processes each sleep ``steps`` times on timeouts drawn
    from a fixed-seed RNG and hand a zero-delay event to a partner,
    mixing heap and ready-deque traffic.  It says how fast this host
    runs the kernel, so host numbers compare across machines.
    """
    repro = import_repro()
    rates = []
    for _ in range(repeats):
        sim = repro.sim.Simulator()
        rng = random.Random(7)
        delays = [rng.random() * 100.0 + 1.0 for _ in range(997)]

        def storm(offset):
            idx = offset
            for _ in range(steps):
                yield sim.timeout(delays[idx % 997])
                ev = sim.event()
                ev.succeed(idx)
                yield ev
                idx += 7

        for p in range(n_procs):
            sim.spawn(storm(p))
        t0 = perf_counter()
        sim.run()
        dt = perf_counter() - t0
        rates.append(sim.events_processed / dt)
    rates.sort()
    return {"sim.calib_events_per_s": rates[len(rates) // 2],
            "calib_events": sim.events_processed}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--no-reference", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    args = ap.parse_args(argv)
    if args.calibrate:
        print(json.dumps(calibrate()))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run_workload(args.workload, args.seed, traced=args.traced,
                          use_reference=not args.no_reference)
    if args.trace_out:
        os.makedirs(os.path.dirname(os.path.abspath(args.trace_out)),
                    exist_ok=True)
        with open(args.trace_out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    result.pop("spans")
    for rec in result["points"]:
        rec.pop("profile", None)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
