"""Tests for the wall-clock engine A/B (``repro bench --engines``)."""

import json
from types import SimpleNamespace

import numpy as np

from repro.bench import engines


class TestRunEngineAb:
    def test_batch_and_process_rows_agree(self):
        report = engines.run_engine_ab(["asia_osm"], workers=2)
        assert report["schema"] == "repro.bench.engines/3"
        assert report["workers"] == 2
        assert "relabel" not in report
        (row,) = report["graphs"]
        assert row["name"] == "asia_osm"
        assert set(row["engines"]) == {"batch", "process"}
        for stats in row["engines"].values():
            assert stats["identical"] is True
            assert stats["wall_seconds"] > 0
            assert stats["peak_logical_bytes"] > 0
        assert (row["engines"]["batch"]["communities"]
                == row["engines"]["process"]["communities"])
        assert row["speedup_process_vs_batch"] > 0
        assert "speedup process vs batch" in engines.format_engine_ab(report)


def _fake_run_one(diverge: bool):
    """A ``_run_one`` stand-in; the process membership differs from the
    batch one when ``diverge``."""

    def run_one(graph, engine, *, workers, seed):
        membership = np.zeros(graph.num_vertices, dtype=np.int32)
        if diverge and engine == "process":
            membership[0] = 1
        result = SimpleNamespace(
            membership=membership, num_passes=1,
            num_communities=int(np.unique(membership).shape[0]))
        return result, 0.5 if engine == "batch" else 0.25, 4096

    return run_one


class TestMain:
    def test_divergence_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(engines, "_run_one", _fake_run_one(True))
        assert engines.main(graphs=["asia_osm"], workers=2) == 1
        out = capsys.readouterr().out
        assert ("error: process membership diverged from the batch "
                "oracle on asia_osm") in out

    def test_agreement_exits_0_and_writes_report(self, monkeypatch, tmp_path,
                                                 capsys):
        monkeypatch.setattr(engines, "_run_one", _fake_run_one(False))
        path = tmp_path / "ab.json"
        assert engines.main(graphs=["asia_osm"], workers=2,
                            output=str(path)) == 0
        doc = json.loads(path.read_text())
        (row,) = doc["graphs"]
        assert row["speedup_process_vs_batch"] == 2.0
        assert "error" not in capsys.readouterr().out
