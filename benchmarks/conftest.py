"""Benchmark-suite plumbing.

Every benchmark registers the paper-style table it regenerated via
:func:`record_table`; the tables are printed in the terminal summary (so
they survive pytest's output capture and land in ``bench_output.txt``)
and merged into ``benchmarks/results.txt`` for EXPERIMENTS.md.  Sections
are keyed by table title, so re-running a single figure refreshes its
section without discarding the others.

Figure benchmarks additionally emit paper-fidelity scorecards via
:func:`record_scorecard`; those land as ``BENCH_<figure>.json`` files in
``benchmarks/scorecards`` (override with ``REPRO_SCORECARD_DIR``) and
can be diffed against the committed ``benchmarks/baselines`` with
``python -m repro.harness.cli bench-compare``.

The invariant auditors run on every ``test_fig*`` benchmark (the
``REPRO_AUDIT`` run option is forced on for those modules), so
a figure whose bookkeeping drifts fails even when its headline numbers
still look plausible.

Every bench session that produced scorecards is also appended to the
run-history store (``repro.obs.runstore``) with its git context, so
``python -m repro.harness.cli runs list`` / ``runs diff`` can navigate
and compare past sessions.  Set ``REPRO_RUNSTORE=0`` to opt out;
``REPRO_RUNSTORE_DIR`` relocates the store.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

import pytest

from repro.harness import RunSpec, format_table
from repro.obs.runstore import RunStore

_TABLES: Dict[str, str] = {}
_SCORECARDS: List[object] = []

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")
SCORECARD_DIR = os.environ.get(
    "REPRO_SCORECARD_DIR",
    os.path.join(os.path.dirname(__file__), "scorecards"))


def record_table(title: str, columns: Sequence[str], rows) -> str:
    """Register a reproduced paper table for the terminal summary."""
    text = format_table(title, columns, rows)
    _TABLES[text.splitlines()[0]] = text
    return text


def record_scorecard(scorecard) -> None:
    """Register a figure's ``BENCH_*.json`` scorecard for writing,
    stamped with the session's comparable run options."""
    for key, value in RunSpec.from_env().comparable_meta().items():
        scorecard.meta.setdefault(key, value)
    _SCORECARDS.append(scorecard)


@pytest.fixture(autouse=True)
def _audit_fig_benchmarks(request, monkeypatch):
    """Force the end-of-run auditors on for every figure benchmark.

    Only ``test_fig*`` modules opt in: the perf-guard benchmark measures
    null-instrumentation overhead and must not pay for auditing.
    """
    module_name = getattr(request.module, "__name__", "")
    if module_name.rpartition(".")[2].startswith("test_fig"):
        monkeypatch.setenv(RunSpec.OPTIONS["audit"][1], "1")


def _merge_results(tables: Dict[str, str]) -> str:
    """Merge new tables into ``results.txt``, keyed by title line.

    Sections already on disk keep their position (refreshed in place
    when regenerated); new sections are appended.  This lets a single
    re-run of one figure update its table without wiping the rest.
    """
    sections: List[str] = []
    titles: Dict[str, int] = {}
    try:
        with open(RESULTS_PATH) as fh:
            existing = fh.read()
    except OSError:
        existing = ""
    for chunk in existing.split("\n\n"):
        chunk = chunk.strip("\n")
        if not chunk:
            continue
        titles[chunk.splitlines()[0]] = len(sections)
        sections.append(chunk)
    for title, text in tables.items():
        text = text.strip("\n")
        if title in titles:
            sections[titles[title]] = text
        else:
            titles[title] = len(sections)
            sections.append(text)
    return "\n\n".join(sections) + "\n"


def _record_run(terminalreporter) -> None:
    """Append this bench session to the run-history store.

    Best-effort by design: history is a convenience, and a read-only
    filesystem or exotic CI sandbox must never fail the benchmarks
    themselves.
    """
    if os.environ.get("REPRO_RUNSTORE", "1") == "0":
        return
    try:
        rec = RunStore().record(
            _SCORECARDS, label="bench@%s" % RunSpec.from_env().scale,
            meta={"source": "pytest-benchmarks"})
        terminalreporter.write_line(
            "run store: recorded run %d (%d figure(s), config %s)"
            % (rec.run_id, len(rec.figures), rec.fingerprint))
    except OSError as exc:  # pragma: no cover - depends on host fs
        terminalreporter.write_line("run store: not recorded (%s)" % exc)


def pytest_terminal_summary(terminalreporter):
    if _SCORECARDS:
        os.makedirs(SCORECARD_DIR, exist_ok=True)
        terminalreporter.write_line("")
        for scorecard in _SCORECARDS:
            path = scorecard.write(SCORECARD_DIR)
            terminalreporter.write_line(
                "scorecard %s: %s (%s)"
                % (scorecard.figure, path,
                   "PASS" if scorecard.passed else "FAIL"))
        _record_run(terminalreporter)
    if not _TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 70)
    terminalreporter.write_line("Reproduced paper tables/figures")
    terminalreporter.write_line("=" * 70)
    for text in _TABLES.values():
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    merged = _merge_results(_TABLES)
    with open(RESULTS_PATH, "w") as fh:
        fh.write(merged)
