"""Tests for the exact-match metrics-snapshot baselines in the bench gate."""

import json

import pytest

from repro.observability.regression import (
    GOLDEN_FAMILIES,
    golden_doc,
    load_baseline,
    record_golden,
    run_check,
    write_json,
)

METRICS = next(f for f in GOLDEN_FAMILIES if f.label == "metrics")
LEIDEN = {"kind": "leiden", "target": "asia_osm", "seed": 42}


class TestMetricsBaselineRoundTrip:
    def test_save_load(self, tmp_path):
        doc = golden_doc(METRICS, "metrics_x",
                         {"kind": "leiden", "target": "x", "seed": 3},
                         {"families": {}})
        path = tmp_path / "metrics_x.json"
        write_json(path, doc)
        assert load_baseline(path) == (METRICS, doc)
        assert json.loads(path.read_text())["schema"] == \
            "repro.metrics-baseline/1"

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope/9", "name": "x"}))
        with pytest.raises(ValueError):
            load_baseline(path)


class TestMeasureDeterminism:
    def test_leiden_snapshot_repeatable(self):
        a = METRICS.produce(**LEIDEN)
        b = METRICS.produce(**LEIDEN)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_service_snapshot_repeatable(self):
        tiny = {"kind": "service", "target": "tiny", "seed": 0}
        a = METRICS.produce(**tiny)
        b = METRICS.produce(**tiny)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert "health" not in a


class TestGate:
    def test_record_then_check_passes(self, tmp_path, capsys):
        record_golden(tmp_path, METRICS, "metrics_asia_osm", LEIDEN)
        record_golden(tmp_path, METRICS, "metrics_service_tiny",
                      {"kind": "service", "target": "tiny", "seed": 0})
        assert run_check(tmp_path) == 0
        out = capsys.readouterr().out
        assert ("PASS metrics_asia_osm (exact match, kind=leiden, "
                "target=asia_osm, seed=42)") in out
        assert "PASS metrics_service_tiny" in out

    def test_drifted_snapshot_fails(self, tmp_path, capsys):
        doc = record_golden(tmp_path, METRICS, "metrics_asia_osm", LEIDEN)
        doc["expected"]["families"]["leiden_passes_total"]["series"][0][
            "value"] += 1
        (tmp_path / "metrics_asia_osm.json").write_text(json.dumps(doc))
        assert run_check(tmp_path) == 1
        out = capsys.readouterr().out
        assert "FAIL metrics_asia_osm" in out
        assert "[REG]" in out
        assert "leiden_passes_total" in out

    def test_mixed_dir_dispatches_by_schema(self, tmp_path, capsys):
        from repro.observability.regression import record_baselines

        record_baselines(tmp_path, graphs=("asia_osm",), seed=42)
        record_golden(tmp_path, METRICS, "metrics_asia_osm", LEIDEN)
        assert run_check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "PASS asia_osm" in out
        assert "PASS metrics_asia_osm" in out
