"""The run spec and the shared run lifecycle.

Pins the three properties the one-spec/one-lifecycle design exists for:
run options are parsed in one place and fail fast; every figure runner
enters through :func:`run_lifecycle` (a structural wiring check, so a
new runner cannot quietly grow its own setup); and the comparability
keys are complete, so a ``--congestion`` or ``--pfc`` run never
fingerprints or diffs as if it were a clean one.
"""

import ast
import json
import pathlib
from dataclasses import fields, replace

import pytest

from repro.config import CONGESTION_ENV, FIDELITY_ENV, PFC_ENV
from repro.harness import MicrobenchConfig, RunSpec, run_flock, run_lifecycle
from repro.harness.cli import main
from repro.obs import RunStore, faults, load_scorecard

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
TINY = MicrobenchConfig(n_clients=2, threads_per_client=2, outstanding=1,
                        warmup_ns=100_000, measure_ns=100_000)

#: (field, malformed value) for every run variable RunSpec.from_env parses.
MALFORMED = [
    ("scale", "abc"),
    ("audit", "enabled"),
    ("profile", "enabled"),
    ("occupancy", "maybe"),
    ("slo_windows", "lots"),
    ("slo_p50_us", "fast"),
    ("slo_p99_us", "fast"),
    ("slo_p999_us", "1us"),
    ("slo_min_mops", "plenty"),
    ("faults", "credits.no_such_fault"),
    ("jobs", "many"),
    ("fidelity", "quantum"),
]


@pytest.fixture(autouse=True)
def _clean_run_env(monkeypatch):
    # setenv first so monkeypatch restores the variables' absence after
    # a CLI run exports the net flags.
    for _flag, var in RunSpec.OPTIONS.values():
        monkeypatch.setenv(var, "")
        monkeypatch.delenv(var)


class TestRunSpec:
    def test_every_field_is_classified(self):
        names = {f.name for f in fields(RunSpec)}
        comparable = set(RunSpec.COMPARABLE)
        observation = set(RunSpec.OBSERVATION_ONLY)
        assert not comparable & observation
        assert comparable | observation == names
        assert set(RunSpec.OPTIONS) == names

    def test_comparable_set(self):
        assert set(RunSpec.COMPARABLE) == {"scale", "fidelity",
                                           "congestion", "pfc"}
        assert "faults" in RunSpec.OBSERVATION_ONLY

    @pytest.mark.parametrize("name,raw", MALFORMED,
                             ids=[RunSpec.OPTIONS[n][1] for n, _ in MALFORMED])
    def test_malformed_value_raises(self, monkeypatch, name, raw):
        var = RunSpec.OPTIONS[name][1]
        monkeypatch.setenv(var, raw)
        with pytest.raises(ValueError, match=var):
            RunSpec.from_env()

    def test_defaults_without_env(self):
        assert RunSpec.from_env() == RunSpec()

    def test_flags_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        monkeypatch.setenv("REPRO_JOBS", "4")
        spec = RunSpec.from_env(scale=0.3, jobs=None)
        assert spec.scale == 0.3 and spec.jobs == 4

    def test_env_values_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "yes")
        monkeypatch.setenv("REPRO_SLO_P99_US", "50")
        monkeypatch.setenv("REPRO_FAULTS", "credits.drop_refill, verbs.leak_cqe")
        monkeypatch.setenv(PFC_ENV, "1")
        monkeypatch.setenv(FIDELITY_ENV, "fluid")
        spec = RunSpec.from_env()
        assert spec.audit
        assert spec.slo_thresholds.p99_us == 50.0
        assert spec.faults == ("credits.drop_refill", "verbs.leak_cqe")
        # PFC implies the congestion model (config.py's resolver).
        assert spec.congestion and spec.pfc
        assert spec.fidelity == "fluid"

    def test_scale_is_clamped(self):
        assert RunSpec(scale=0.01).scale == 0.1
        assert RunSpec(jobs=0).jobs == 1

    def test_comparable_meta_writes_switch_modes_only_when_on(self):
        assert RunSpec().comparable_meta() == {"bench_scale": 1.0,
                                               "fidelity": "packet"}
        meta = RunSpec(scale=0.5, congestion=True, pfc=True).comparable_meta()
        assert meta == {"bench_scale": 0.5, "fidelity": "packet",
                        "congestion": True, "pfc": True}


class TestLifecycle:
    def test_window_is_scaled(self):
        with run_lifecycle("x", 1_000.0, 3_000.0,
                           RunSpec(scale=0.5)) as life:
            assert (life.warmup, life.measure, life.end) == \
                (500.0, 1_500.0, 2_000.0)

    def test_faults_live_only_inside_the_block(self):
        spec = RunSpec(faults=("verbs.leak_cqe",))
        with faults.injected("credits.drop_refill"):
            with run_lifecycle("x", 1.0, 1.0, spec):
                assert faults.ACTIVE == {"credits.drop_refill",
                                         "verbs.leak_cqe"}
            # Faults the caller injected are left alone.
            assert faults.ACTIVE == {"credits.drop_refill"}
        assert not faults.ACTIVE

    def test_finish_stamps_spec_and_reports(self):
        spec = RunSpec(scale=0.1, audit=True, profile=True, occupancy=True)
        result = run_flock(TINY, spec=spec)
        assert result.spec is spec
        assert result.audit_report is not None and result.audit_report.ok
        assert {"census", "occupancy"} <= set(result.profile)

    def test_spec_does_not_change_results(self):
        plain = run_flock(TINY, spec=RunSpec(scale=0.1))
        observed = run_flock(TINY, spec=replace(
            RunSpec(scale=0.1), audit=True, profile=True, occupancy=True))
        assert (plain.ops, plain.latency, plain.extras) == \
            (observed.ops, observed.latency, observed.extras)


def _module_trees(*packages):
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _docstring_nodes(tree):
    nodes = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and \
                    isinstance(body[0].value, ast.Constant):
                nodes.add(id(body[0].value))
    return nodes


class TestWiring:
    """Structural pins (no runner may bypass the lifecycle)."""

    RUNNERS = {
        "harness/microbench.py": ("run_flock", "run_erpc", "run_rc",
                                  "run_raw_reads", "run_ud_rpc"),
        "harness/incastbench.py": ("run_incast_flock", "run_incast_ud"),
        "harness/indexbench.py": ("run_flock_index", "run_erpc_index"),
        "harness/txnbench.py": ("run_flocktx", "run_fasst_txn"),
        "search/runner.py": ("run_scenario_leg",),
    }

    def test_every_runner_enters_through_run_lifecycle(self):
        assert sum(len(v) for v in self.RUNNERS.values()) == 12
        for rel, names in self.RUNNERS.items():
            tree = ast.parse((SRC / rel).read_text())
            funcs = {n.name: n for n in tree.body
                     if isinstance(n, ast.FunctionDef)}
            for name in names:
                calls = {c.func.id for c in ast.walk(funcs[name])
                         if isinstance(c, ast.Call)
                         and isinstance(c.func, ast.Name)}
                assert "run_lifecycle" in calls, "%s.%s" % (rel, name)

    def test_only_the_lifecycle_builds_and_drives_simulators(self):
        for path, tree in _module_trees("harness", "search"):
            if path.name == "lifecycle.py":
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                assert name not in ("Simulator", "run_profiled"), \
                    "%s constructs or drives a simulator" % path
                is_sim_run = (name == "run" and isinstance(func, ast.Attribute)
                              and isinstance(func.value, ast.Name)
                              and func.value.id == "sim")
                assert not is_sim_run, "%s calls sim.run(" % path

    def test_run_variables_are_read_only_by_from_env(self):
        run_vars = {var for _flag, var in RunSpec.OPTIONS.values()}
        net_vars = {CONGESTION_ENV, PFC_ENV, FIDELITY_ENV}
        for path, tree in _module_trees("."):
            rel = path.relative_to(SRC).as_posix()
            docstrings = _docstring_nodes(tree)
            literals = {node.value for node in ast.walk(tree)
                        if isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and id(node) not in docstrings}
            allowed = {"harness/lifecycle.py": run_vars - net_vars,
                       "config.py": net_vars}.get(rel, set())
            assert not (literals & run_vars) - allowed, \
                "%s names a run variable" % rel
        lifecycle = ast.parse((SRC / "harness" / "lifecycle.py").read_text())
        readers = set()
        for func in ast.walk(lifecycle):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Attribute) and \
                            node.attr == "environ":
                        readers.add(func.name)
        assert readers == {"from_env"}


def _record(tmp_path, name, flags):
    out = tmp_path / name
    assert main(["--scale", "0.1"] + flags + ["--scorecard", str(out),
                "fig2a", "--qps", "8", "--clients", "2"]) == 0
    store = RunStore(str(tmp_path / "store"))
    return store, store.record([load_scorecard(str(out / "BENCH_fig2a.json"))],
                               label=name)


class TestComparability:
    def test_switch_modes_fingerprint_apart_and_skip_diffs(self, tmp_path,
                                                           capsys):
        store, clean = _record(tmp_path, "clean", [])
        _store, cong = _record(tmp_path, "cong", ["--congestion"])
        _store, pfc = _record(tmp_path, "pfc", ["--pfc"])
        # A clean run keeps the fingerprint it had before the switch
        # modes joined the comparable set.
        assert clean.fingerprint == "ff1c36a5fd36"
        assert len({clean.fingerprint, cong.fingerprint,
                    pfc.fingerprint}) == 3
        meta = cong.scorecards["fig2a"]["meta"]
        assert meta["congestion"] is True and "pfc" not in meta
        assert "congestion" not in clean.scorecards["fig2a"]["meta"]

        report = store.diff(clean.run_id, cong.run_id)
        assert not report.deltas
        assert any("congestion mismatch" in s for s in report.skipped)

    def test_faults_stay_diffable(self, tmp_path, monkeypatch, capsys):
        store, clean = _record(tmp_path, "clean", [])
        monkeypatch.setenv("REPRO_FAULTS", "bench.step_handler_cost")
        _store, faulty = _record(tmp_path, "faulty", [])
        assert faulty.fingerprint == clean.fingerprint
        meta = json.dumps(faulty.scorecards["fig2a"]["meta"], sort_keys=True)
        assert "step_handler" not in meta
