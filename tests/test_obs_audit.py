"""Invariant auditors: framework units plus clean-run end-to-end passes."""

import pytest

from repro.harness import (
    IndexBenchConfig,
    MicrobenchConfig,
    RunSpec,
    TxnBenchConfig,
    run_erpc,
    run_flock,
    run_flock_index,
    run_flocktx,
    run_raw_reads,
)
from repro.obs import (
    AuditContext,
    AuditError,
    AuditReport,
    Registry,
    Violation,
    run_audit,
)
from repro.sim import Simulator

SMALL = MicrobenchConfig(n_clients=3, threads_per_client=4, outstanding=4,
                         warmup_ns=150_000, measure_ns=150_000)
AUDITED = RunSpec(audit=True)
AUDIT_ENV = RunSpec.OPTIONS["audit"][1]


class TestFramework:
    def test_violation_str_names_auditor_and_invariant(self):
        v = Violation(auditor="credits", invariant="flock.credits",
                      detail="bad", observed=1, expected=2)
        text = str(v)
        assert "credits" in text and "flock.credits" in text
        assert "observed=1" in text and "expected=2" in text

    def test_report_ok_and_format(self):
        report = AuditReport(checks=3)
        assert report.ok
        report.violations.append(Violation("a", "i", "d"))
        assert not report.ok
        assert "1 violations" in report.format()
        assert "FAIL" in report.format()

    def test_report_format_truncates(self):
        report = AuditReport()
        for i in range(30):
            report.violations.append(Violation("a", "i%d" % i, "d"))
        text = report.format(max_violations=5)
        assert "... 25 more violations" in text

    def test_report_to_dict(self):
        report = AuditReport(checks=2)
        report.skipped.append("x: no registry")
        d = report.to_dict()
        assert d["checks"] == 2 and d["ok"] and d["skipped"] == ["x: no registry"]

    def test_audit_error_carries_report(self):
        report = AuditReport()
        report.violations.append(Violation("a", "i", "d"))
        err = AuditError(report)
        assert err.report is report
        assert isinstance(err, AssertionError)

    def test_check_eq_exact_and_float(self):
        ctx = AuditContext(Simulator())
        assert ctx.check_eq("x", 5, 5)
        assert not ctx.check_eq("x", 5, 6)
        # Float mode pads with rtol/atol slack.
        assert ctx.check_eq("y", 1.0 + 1e-12, 1.0, exact=False)
        assert not ctx.check_eq("y", 1.1, 1.0, exact=False)
        assert ctx.report.checks == 4
        assert len(ctx.report.violations) == 2

    def test_context_drops_disabled_registry(self):
        reg = Registry()
        reg.enabled = False
        ctx = AuditContext(Simulator(), reg)
        assert ctx.registry is None

    def test_audit_enabled_env_parsing(self, monkeypatch):
        for off in ("", "0", "false", "NO", "off"):
            monkeypatch.setenv(AUDIT_ENV, off)
            assert not RunSpec.from_env().audit
        for on in ("1", "true", "yes"):
            monkeypatch.setenv(AUDIT_ENV, on)
            assert RunSpec.from_env().audit
        monkeypatch.delenv(AUDIT_ENV)
        assert not RunSpec.from_env().audit

    def test_empty_sim_audit_is_clean(self):
        report = run_audit(Simulator())
        assert report.ok
        assert report.checks >= 2  # monotone-time always runs
        assert report.skipped  # no components -> recorded skips

    def test_auditor_crash_becomes_violation(self):
        def broken(ctx):
            raise RuntimeError("boom")

        report = run_audit(Simulator(), auditors=[("broken", broken)])
        assert not report.ok
        assert report.violations[0].invariant == "auditor.crashed"
        assert "boom" in report.violations[0].detail

    def test_raise_on_violation(self):
        def broken(ctx):
            ctx.check("x", False, "always fails")

        with pytest.raises(AuditError) as excinfo:
            run_audit(Simulator(), auditors=[("broken", broken)],
                      raise_on_violation=True)
        assert not excinfo.value.report.ok


class TestCleanRuns:
    """Every runner passes its own audit on an unmutated model."""

    def _assert_clean(self, result):
        report = result.audit_report
        assert report is not None
        assert report.ok, report.format()
        assert report.checks > 10

    def test_flock_audits_clean(self):
        self._assert_clean(run_flock(SMALL, spec=AUDITED))

    def test_erpc_audits_clean(self):
        self._assert_clean(run_erpc(SMALL, spec=AUDITED))

    def test_raw_reads_audit_clean(self):
        self._assert_clean(run_raw_reads(24, n_clients=3, spec=AUDITED))

    def test_flocktx_audits_clean(self):
        cfg = TxnBenchConfig(n_clients=2, threads_per_client=2,
                             coroutines_per_thread=3,
                             subscribers_per_server=600,
                             warmup_ns=200_000, measure_ns=200_000)
        self._assert_clean(run_flocktx(cfg, spec=AUDITED))

    def test_index_audits_clean(self):
        cfg = IndexBenchConfig(n_clients=2, threads_per_client=3,
                               n_keys=20_000, warmup_ns=200_000,
                               measure_ns=200_000)
        self._assert_clean(run_flock_index(cfg, spec=AUDITED)["get"])

    def test_flock_audit_reports_littles_law_info(self):
        result = run_flock(SMALL, spec=AUDITED)
        laws = {k: v for k, v in result.audit_report.info.items()
                if k.startswith("queues.littles_law")}
        assert laws
        for fig in laws.values():
            assert fig["L"] >= 0 and fig["W_ns"] > 0

    def test_audit_env_opts_runs_in(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, "1")
        result = run_flock(SMALL)
        assert result.audit_report is not None and result.audit_report.ok

    def test_audit_off_by_default(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV, raising=False)
        result = run_flock(SMALL)
        assert result.audit_report is None

    def test_audit_with_shared_telemetry_skips_counter_checks(self):
        from repro.obs import Telemetry

        tel = Telemetry()
        run_flock(SMALL, telemetry=tel)  # first run dirties the registry
        result = run_flock(SMALL, telemetry=tel, spec=AUDITED)
        report = result.audit_report
        assert report.ok, report.format()
        # Counter cross-checks must be recorded skips, not bogus passes.
        assert any("counters" in s for s in report.skipped)
