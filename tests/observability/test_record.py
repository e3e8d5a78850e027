"""Tests for the recorded run (:mod:`repro.observability.record`): the
one producer of ``run --record``, ``serve --record`` and the golden
baselines' documents."""

import json

from repro.cli import main
from repro.core.config import LeidenConfig
from repro.datasets.registry import load_graph
from repro.observability.record import record_solve
from repro.observability.regression import GOLDEN_FAMILIES
from repro.observability.tracer import trace_tree

GOLDEN = {family.label: family for family in GOLDEN_FAMILIES}


class TestRecordSolve:
    def test_trace_capture(self):
        record, result = record_solve(load_graph("asia_osm"),
                                      LeidenConfig(seed=42))
        assert record.summary["num_passes"] == result.num_passes
        assert trace_tree(record.recorder).children[0].name == "leiden"
        assert record.memory.peak_bytes("csr") > 0

    def test_cli_record_is_the_golden_run(self, tmp_path, capsys):
        """``run asia_osm --seed 42 --record`` writes the metrics golden
        document, and the memory one with the run's ``engine`` meta."""
        assert main(["run", "asia_osm", "--seed", "42",
                     "--record", str(tmp_path)]) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics == GOLDEN["metrics"].produce(
            kind="leiden", target="asia_osm", seed=42)
        memory = json.loads((tmp_path / "memory.json").read_text())
        assert memory["meta"].pop("engine") == "batch"
        assert memory == GOLDEN["memory"].produce(graph="asia_osm", seed=42)


class TestRecordWorkload:
    def test_cli_record_is_the_golden_run(self, tmp_path, capsys):
        """``serve --record --output`` writes the service golden stats,
        and the metrics golden document with ``experiment`` where the
        golden file has ``profile``."""
        stats = tmp_path / "stats.json"
        assert main(["serve", "--workload", "tiny", "--seed", "0",
                     "--output", str(stats),
                     "--record", str(tmp_path / "rec")]) == 0
        assert (json.loads(stats.read_text())
                == GOLDEN["service"].produce(profile="tiny", seed=0))
        metrics = json.loads((tmp_path / "rec" / "metrics.json").read_text())
        assert metrics["meta"].pop("experiment") == "serve:tiny"
        golden = GOLDEN["metrics"].produce(kind="service", target="tiny",
                                           seed=0)
        assert golden["meta"].pop("profile") == "tiny"
        assert metrics == golden
