"""Tests for the ``python -m repro.bench`` entry point."""


import numpy as np
import pytest

import repro.bench.__main__ as bench_main


class _StubModule:
    __name__ = "repro.bench.experiments.stub"
    calls = 0

    @classmethod
    def main(cls):
        cls.calls += 1


class TestMain:
    def test_filter_selects_experiments(self, monkeypatch, capsys):
        _StubModule.calls = 0
        monkeypatch.setattr(
            bench_main, "ALL_EXPERIMENTS",
            [("Stub A", _StubModule), ("Other B", _StubModule)],
        )
        assert bench_main.main(["stub"]) == 0
        assert _StubModule.calls == 1
        out = capsys.readouterr().out
        assert "Stub A" in out and "Other B" not in out

    def test_unmatched_filter_exits_2(self, monkeypatch, capsys):
        _StubModule.calls = 0
        monkeypatch.setattr(
            bench_main, "ALL_EXPERIMENTS",
            [("Stub A", _StubModule), ("Other B", _StubModule)],
        )
        assert bench_main.main(["stub", "nosuchexperiment"]) == 2
        assert _StubModule.calls == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines[:2] == ["VALID experiment Stub A",
                             "VALID experiment Other B"]
        assert lines[2].startswith(
            "error: no experiment label matches 'nosuchexperiment'")
        assert len(lines) == 3 and captured.out == ""

    @pytest.mark.parametrize("flags", [
        ["--kernels", "--quick"], ["--engines"], ["--check"],
        ["--update-baselines"], ["--output", "r.md"], ["--json", "r.json"],
    ], ids=lambda flags: flags[0])
    def test_filter_with_mode_flag_exits_2(self, flags, monkeypatch,
                                           capsys):
        _StubModule.calls = 0
        monkeypatch.setattr(bench_main, "ALL_EXPERIMENTS",
                            [("Table X", _StubModule)])
        with pytest.raises(SystemExit) as exc:
            bench_main.main([*flags, "tableX"])
        assert exc.value.code == 2
        assert _StubModule.calls == 0
        assert (f"experiment filters do not apply to {flags[0]}"
                in capsys.readouterr().err)

    def test_no_filter_runs_all(self, monkeypatch, capsys):
        _StubModule.calls = 0
        monkeypatch.setattr(
            bench_main, "ALL_EXPERIMENTS",
            [("A", _StubModule), ("B", _StubModule)],
        )
        assert bench_main.main([]) == 0
        assert _StubModule.calls == 2

    def test_report_mode(self, monkeypatch, tmp_path, capsys):
        written = {}

        def fake_generate(seed=42):
            written["seed"] = seed
            return "REPORT"

        def fake_write(report, markdown_path=None, json_path=None):
            written["md"] = markdown_path
            written["json"] = json_path

        import repro.bench.report as report_mod
        monkeypatch.setattr(report_mod, "generate_report", fake_generate)
        monkeypatch.setattr(report_mod, "write_report", fake_write)
        md = tmp_path / "r.md"
        assert bench_main.main(["--output", str(md), "--seed", "7"]) == 0
        assert written["seed"] == 7
        assert written["md"] == str(md)


class TestKernelsTiming:
    """``bench --kernels`` times the production kernels against their
    oracles and gates on bitwise-equal outputs."""

    def test_quick_run_passes(self, capsys):
        assert bench_main.main(["--kernels", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "aggregate uk-2002 pass 0" in out
        assert "aggregate com-Orkut pass 0" in out
        assert "DIFFERS" not in out
        rows = [line for line in out.splitlines()
                if line.startswith("aggregate ")]
        assert len(rows) == 2
        assert all(" MiB" in line for line in rows)

    def test_differing_outputs_exit_1(self, monkeypatch, capsys):
        import repro.bench.kernels as kernels

        real = kernels.segment_pair_sums_packed

        def off_by_one_ulp(*args):
            seg, comm, sums = real(*args)
            return seg, comm, np.nextafter(sums, np.inf)

        monkeypatch.setattr(kernels, "segment_pair_sums_packed",
                            off_by_one_ulp)
        assert bench_main.main(["--kernels", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "DIFFERS" in out
        assert "FAIL:" in out

    def test_differing_aggregation_exits_1(self, monkeypatch, capsys):
        """The range-wise aggregation is checked against the one-shot
        oracle bit for bit.  Super-edge weights are stored as float32,
        so the perturbation is one float32 ulp."""
        import repro.core.aggregate as aggregate

        real = aggregate.segment_pair_sums_packed

        def off_by_one_ulp(*args):
            seg, comm, sums = real(*args)
            up = np.nextafter(sums.astype(np.float32), np.float32(np.inf))
            return seg, comm, up.astype(sums.dtype)

        monkeypatch.setattr(aggregate, "segment_pair_sums_packed",
                            off_by_one_ulp)
        assert bench_main.main(["--kernels", "--quick"]) == 1
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()
                if line.startswith("aggregate ")]
        assert rows and all("DIFFERS" in line for line in rows)
        assert "FAIL:" in out
