"""The command-line experiment runner."""

import pytest

from repro.harness.cli import build_parser, main


class TestParser:
    def test_all_experiments_listed(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for name in ("fig2a", "fig2b", "fig6", "fig9", "fig10", "fig14",
                     "fig16"):
            assert name in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.outstanding == 1
        assert args.clients == 23

    def test_fig11_and_fig12_parsers(self):
        args = build_parser().parse_args(["fig11", "--sizes", "512"])
        assert args.sizes == [512]
        args = build_parser().parse_args(["fig12", "--clients-list", "46"])
        assert args.clients_list == [46]

    def test_scale_flag_sets_spec(self, monkeypatch, capsys, tmp_path):
        import json
        import os
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        main(["--scale", "0.5", "--scorecard", str(tmp_path),
              "fig2a", "--qps", "8", "--clients", "2"])
        # The flag reaches the runs through the spec, not the process
        # environment, and the spec stamps the scorecard.
        assert "REPRO_BENCH_SCALE" not in os.environ
        sc = json.loads((tmp_path / "BENCH_fig2a.json").read_text())
        assert sc["meta"]["bench_scale"] == 0.5


class TestSmallRuns:
    def test_fig2a_prints_table(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        main(["--scale", "0.5", "fig2a", "--qps", "8", "--clients", "2"])
        out = capsys.readouterr().out
        assert "Fig 2(a)" in out and "Mops" in out

    def test_fig6_prints_table(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        main(["--scale", "0.3", "fig6", "--threads", "2",
              "--clients", "2"])
        out = capsys.readouterr().out
        assert "FLock" in out and "eRPC" in out


class TestProfileCommand:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        # Keep ambient run options out of the spec under test.
        for var in ("REPRO_BENCH_SCALE", "REPRO_PROFILE",
                    "REPRO_OCCUPANCY"):
            monkeypatch.delenv(var, raising=False)

    def test_profile_subcommand_exports(self, capsys, tmp_path):
        flame = tmp_path / "fig2a.folded"
        census = tmp_path / "fig2a.json"
        rc = main(["--scale", "0.05", "profile",
                   "--flame", str(flame), "--census", str(census),
                   "fig2a", "--qps", "8", "--clients", "2"])
        assert not rc
        out = capsys.readouterr().out
        assert "Cost observatory" in out
        import json
        doc = json.loads(census.read_text())
        for prof in doc["runs"].values():
            shares = [b["share"] for b in prof["host"]["buckets"]]
            assert abs(sum(shares) - 1.0) < 1e-6
            assert "occupancy" in prof
        for line in flame.read_text().splitlines():
            frame, ns = line.rsplit(" ", 1)
            # label;component;kind frames, flamegraph.pl-ready
            assert frame.count(";") == 2 and int(ns) >= 0

    def test_profile_requires_a_figure(self, capsys):
        assert main(["profile"]) == 2

    def test_plain_run_has_no_observatory_output(self, capsys):
        main(["--scale", "0.05", "fig2a", "--qps", "8", "--clients", "2"])
        assert "Cost observatory" not in capsys.readouterr().out
