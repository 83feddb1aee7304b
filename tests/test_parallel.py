"""The parallel sweep executor: unit behaviour and the determinism
contract.

``run_sweep`` must be a drop-in replacement for a serial ``for`` loop:
results come back in input order, keyed by the point's stable identity,
and — the acceptance criterion — a ``jobs=N`` run is *bit-identical* to
a serial run for every benchmark sweep.  These tests pin both halves:
the executor mechanics (ordering, scrubbing, the telemetry-forces-serial
guard, ``REPRO_JOBS`` resolution) and end-to-end determinism on real
figure sweeps at smoke scale.
"""

import json
import os

import pytest

from repro.harness import MicrobenchConfig, RunSpec, run_flock, sweep_raw_reads
from repro.harness.cli import main
from repro.harness.incastbench import IncastConfig, run_incast
from repro.harness.parallel import SweepPoint, run_sweep
from repro.harness.scorecards import scorecard_fig2a
from repro.obs import Telemetry, current_telemetry, disable, enable
from repro.sim.rand import Streams

SMOKE = "0.05"
JOBS_ENV = RunSpec.OPTIONS["jobs"][1]


# Module-level so SweepPoints pickle across the process boundary.
def _square(x):
    return x * x


def _pid_and_value(x):
    return (os.getpid(), x)


def _tiny_flock():
    return run_flock(MicrobenchConfig(n_clients=2, threads_per_client=2,
                                      outstanding=1))


class TestRunSweep:
    def test_results_in_input_order(self):
        points = [SweepPoint("p%d" % i, _square, (i,)) for i in range(7)]
        for jobs in (1, 4):
            assert run_sweep(points, jobs) == \
                [("p%d" % i, i * i) for i in range(7)]

    def test_parallel_actually_uses_workers(self):
        points = [SweepPoint("p%d" % i, _pid_and_value, (i,))
                  for i in range(4)]
        pids = {pid for _k, (pid, _v) in run_sweep(points, 4)}
        assert os.getpid() not in pids

    def test_single_point_stays_serial(self):
        [(_key, (pid, _v))] = run_sweep(
            [SweepPoint("only", _pid_and_value, (1,))], 4)
        assert pid == os.getpid()

    def test_telemetry_forces_serial(self):
        enable(Telemetry())
        try:
            points = [SweepPoint("p%d" % i, _pid_and_value, (i,))
                      for i in range(4)]
            pids = {pid for _k, (pid, _v) in run_sweep(points, 4)}
            assert pids == {os.getpid()}
        finally:
            disable()
        assert current_telemetry() is None

    def test_worker_results_are_telemetry_scrubbed(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", SMOKE)
        points = [SweepPoint("r%d" % i, _tiny_flock) for i in range(2)]
        for _key, result in run_sweep(points, 2):
            assert result.telemetry is None
            assert result.ops > 0

    def test_metrics_only_telemetry_keeps_parallelism(self):
        """``wants_spans=False`` must not trip the forces-serial guard:
        points still fan out to worker processes."""
        enable(Telemetry(wants_spans=False))
        try:
            points = [SweepPoint("p%d" % i, _pid_and_value, (i,))
                      for i in range(4)]
            results = run_sweep(points, 4)
            pids = {pid for _k, (pid, _v) in results}
            assert os.getpid() not in pids
            assert [v for _k, (_pid, v) in results] == [0, 1, 2, 3]
        finally:
            disable()

    def test_metrics_merge_is_jobs_invariant(self, monkeypatch):
        """The parent registry after a metrics-only sweep is identical
        for jobs=1 and jobs=4: per-point registries merge in input
        order either way."""
        monkeypatch.setenv("REPRO_BENCH_SCALE", SMOKE)
        snapshots = []
        for jobs in (1, 4):
            tel = enable(Telemetry(wants_spans=False))
            try:
                points = [SweepPoint("r%d" % i, _tiny_flock)
                          for i in range(3)]
                run_sweep(points, jobs)
                snapshots.append(json.dumps(tel.metrics_snapshot(),
                                            sort_keys=True))
            finally:
                disable()
        assert snapshots[0] == snapshots[1]
        assert '"count"' in snapshots[0]  # histograms actually recorded


class TestDefaultJobs:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert RunSpec.from_env(jobs=3).jobs == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "6")
        assert RunSpec.from_env().jobs == 6

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert RunSpec.from_env().jobs == 1
        assert RunSpec(jobs=0).jobs == 1


class TestChildStreams:
    def test_child_is_pure_function_of_seed_and_id(self):
        root = Streams(42)
        a, b = root.child("fig2a/qps=88"), root.child("fig2a/qps=88")
        assert a.seed == b.seed
        assert a.stream("jitter").random() == b.stream("jitter").random()

    def test_distinct_ids_diverge(self):
        root = Streams(42)
        assert root.child("fig2a/qps=88").seed != \
            root.child("fig2a/qps=176").seed

    def test_child_seed_is_bounded(self):
        seed = Streams(2 ** 40).child("x" * 100).seed
        assert 0 <= seed < 2 ** 63


def _result_fingerprint(r):
    return (r.ops, r.duration_ns, tuple(r.latency), dict(r.extras),
            json.dumps(r.slo, sort_keys=True),
            json.dumps(r.anomalies, sort_keys=True))


class TestSweepDeterminism:
    """jobs=1 vs jobs=4 on real figure sweeps: bit-identical."""

    @pytest.fixture(autouse=True)
    def _smoke_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", SMOKE)

    def test_fig2a_metrics_and_scorecard(self):
        qps = [8, 16]
        serial = sweep_raw_reads(qps, n_clients=2, jobs=1)
        parallel = sweep_raw_reads(qps, n_clients=2, jobs=4)
        assert list(serial) == list(parallel) == qps
        for q in qps:
            assert _result_fingerprint(serial[q]) == \
                _result_fingerprint(parallel[q])
        def dump(res):
            d = scorecard_fig2a(res).to_dict()
            # Host timings are machine- and scheduling-dependent by
            # design; everything else must match bit-for-bit.
            host = d["meta"].pop("host")
            assert host["events"] > 0 and host["wall_s"] > 0
            return json.dumps(d, sort_keys=True)
        assert dump(serial) == dump(parallel)

    def test_incast_legs_and_retention(self):
        cfg = IncastConfig(n_senders=3, threads_per_client=2)
        serial = run_incast(cfg, jobs=1)
        parallel = run_incast(cfg, jobs=4)
        assert serial.keys() == parallel.keys()
        for leg in ("flock_base", "flock_cong", "ud_base", "ud_cong"):
            assert _result_fingerprint(serial[leg]) == \
                _result_fingerprint(parallel[leg])
        assert serial["flock_retention"] == parallel["flock_retention"]
        assert serial["ud_retention"] == parallel["ud_retention"]

    def test_cli_metrics_file_identical_across_jobs(self, tmp_path,
                                                    capsys):
        """``--metrics`` no longer forces telemetry off under --jobs:
        the merged counter/histogram dump is byte-identical for any
        worker count."""
        dumps = []
        for jobs, name in ((1, "serial.json"), (4, "parallel.json")):
            path = tmp_path / name
            main(["--scale", SMOKE, "--jobs", str(jobs),
                  "--metrics", str(path),
                  "fig2a", "--qps", "8", "16", "--clients", "2"])
            capsys.readouterr()
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]
        assert b'"count"' in dumps[0]

    def test_cli_slo_timeline_identical_across_jobs(self, tmp_path,
                                                    capsys):
        dumps = []
        for jobs, name in ((1, "s.json"), (4, "p.json")):
            path = tmp_path / name
            main(["--scale", SMOKE, "--jobs", str(jobs),
                  "--slo-timeline", str(path),
                  "fig2a", "--qps", "8", "16", "--clients", "2"])
            capsys.readouterr()
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]
        blocks = json.loads(dumps[0])
        assert blocks  # one timeline per sweep point
        assert all("windows" in block for block in blocks.values())

    def test_cli_attribution_table_identical(self, capsys):
        """Observability runs are forced serial, so ``--jobs`` may never
        change an attribution table — not even its formatting."""
        argv = ["--scale", SMOKE, "--attribution",
                "fig2a", "--qps", "8", "--clients", "2"]
        main(argv)
        serial_out = capsys.readouterr().out
        main(["--jobs", "4"] + argv)
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "attribution" in serial_out.lower()
