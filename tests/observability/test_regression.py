"""Tests for the baseline store and the ``bench --check`` perf gate."""

import json
import re
from dataclasses import replace

import pytest

from repro.core.config import LeidenConfig
from repro.datasets.registry import load_graph
from repro.observability import regression
from repro.observability.record import record_solve
from repro.observability.regression import (
    BASELINE_SCHEMA,
    GOLDEN_FAMILIES,
    Baseline,
    RunMetrics,
    Thresholds,
    compare_metrics,
    format_checks,
    golden_doc,
    load_baseline,
    measure_experiment,
    record_baselines,
    record_golden,
    run_check,
    write_json,
)
from repro.observability.tracer import trace_doc

GRAPH = "asia_osm"  # smallest smoke graph in the registry


def _metrics(**overrides):
    base = dict(wall_seconds=1.0, modeled_seconds=0.5, total_work=1000.0,
                modularity=0.9, num_passes=3, num_communities=10)
    base.update(overrides)
    return RunMetrics(**base)


def _baseline(metrics=None, thresholds=None):
    return Baseline(
        name="synthetic", graph=GRAPH, seed=42, num_threads=64,
        metrics=metrics or _metrics(),
        thresholds=thresholds or Thresholds(),
    )


class TestBaselineRoundTrip:
    def test_save_load(self, tmp_path):
        b = _baseline()
        path = tmp_path / "b.json"
        b.save(path)
        loaded = Baseline.load(path)
        assert loaded == b
        assert json.loads(path.read_text())["schema"] == BASELINE_SCHEMA

    def test_rejects_unknown_schema(self, tmp_path):
        doc = _baseline().to_dict()
        doc["schema"] = "repro.baseline/999"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            Baseline.load(path)


class TestCompareMetrics:
    def test_identical_run_passes(self):
        checks = compare_metrics(_baseline(), _metrics())
        assert all(c.ok for c in checks)
        assert {c.metric for c in checks} == {
            "wall_seconds", "modeled_seconds", "total_work", "modularity"
        }

    def test_wall_regression_past_threshold_fails(self):
        """The satellite case: a synthetic 20% slowdown must be caught
        by the default 15% wall threshold."""
        checks = compare_metrics(_baseline(), _metrics(wall_seconds=1.2))
        bad = {c.metric: c for c in checks if not c.ok}
        assert set(bad) == {"wall_seconds"}
        assert bad["wall_seconds"].regression == pytest.approx(0.2)

    def test_faster_run_passes(self):
        checks = compare_metrics(_baseline(), _metrics(wall_seconds=0.5))
        assert all(c.ok for c in checks)

    def test_modularity_gates_on_drop_only(self):
        up = compare_metrics(_baseline(), _metrics(modularity=0.95))
        assert all(c.ok for c in up)
        down = compare_metrics(_baseline(), _metrics(modularity=0.85))
        bad = [c for c in down if not c.ok]
        assert [c.metric for c in bad] == ["modularity"]

    def test_threshold_override(self):
        strict = Thresholds(wall_seconds=0.01)
        checks = compare_metrics(
            _baseline(), _metrics(wall_seconds=1.05), thresholds=strict
        )
        assert not all(c.ok for c in checks)

    def test_format_mentions_failure(self):
        checks = compare_metrics(_baseline(), _metrics(wall_seconds=1.2))
        text = format_checks("synthetic", checks)
        assert text.startswith("FAIL synthetic")
        assert "[REG] wall_seconds" in text
        assert "+20.0%" in text


class TestMeasureExperiment:
    def test_deterministic_modeled_metrics(self):
        a, _ = measure_experiment(GRAPH, seed=42)
        b, _ = measure_experiment(GRAPH, seed=42)
        assert a.modeled_seconds == b.modeled_seconds
        assert a.total_work == b.total_work
        assert a.modularity == b.modularity


class TestRunCheck:
    def test_clean_tree_passes(self, tmp_path, capsys):
        record_baselines(tmp_path, [GRAPH])
        assert run_check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "PASS asia_osm" in out
        assert "1/1 baselines within thresholds" in out

    def test_injected_slowdown_fails_with_readable_diff(
        self, tmp_path, capsys, monkeypatch
    ):
        """A synthetic 20% wall-clock slowdown must exit non-zero and
        print which metric regressed by how much."""
        (recorded,) = record_baselines(tmp_path, [GRAPH],
                                       thresholds=Thresholds())
        real = regression.measure_experiment

        def slowed(*args, **kwargs):
            # Exactly 20% slower than the recorded baseline — independent
            # of this machine's wall-clock noise between the two runs.
            _, result = real(*args, **kwargs)
            base = recorded.metrics
            slow = RunMetrics(**{**base.to_dict(),
                                 "wall_seconds": base.wall_seconds * 1.2})
            return slow, result

        monkeypatch.setattr(regression, "measure_experiment", slowed)
        assert run_check(tmp_path) == 1
        out = capsys.readouterr().out
        assert "FAIL asia_osm" in out
        assert "[REG] wall_seconds" in out
        assert "change=+20.0% (limit +15%)" in out
        assert "0/1 baselines within thresholds" in out

    def test_modeled_work_regression_fails(self, tmp_path, capsys, monkeypatch):
        record_baselines(tmp_path, [GRAPH], thresholds=Thresholds())
        real = regression.measure_experiment

        def heavier(*args, **kwargs):
            metrics, result = real(*args, **kwargs)
            heavy = RunMetrics(**{**metrics.to_dict(),
                                  "total_work": metrics.total_work * 1.5})
            return heavy, result

        monkeypatch.setattr(regression, "measure_experiment", heavier)
        assert run_check(tmp_path) == 1
        assert "[REG] total_work" in capsys.readouterr().out

    def test_missing_baseline_dir(self, tmp_path, capsys):
        assert run_check(tmp_path / "nowhere") == 2
        assert "no baselines" in capsys.readouterr().out

    def test_wall_time_is_best_of_the_solves(self, tmp_path, monkeypatch):
        """Both the recorder and the gate take the best wall time of
        ``BASELINE_SOLVES`` solves, so one slow solve cannot fail it."""
        real = regression.measure_experiment
        walls = iter([3.0, 1.0, 2.0] * 2)

        def jittery(*args, **kwargs):
            metrics, result = real(*args, **kwargs)
            return replace(metrics, wall_seconds=next(walls)), result

        monkeypatch.setattr(regression, "measure_experiment", jittery)
        assert regression.BASELINE_SOLVES == 3
        (recorded,) = record_baselines(tmp_path, [GRAPH],
                                       thresholds=Thresholds())
        assert recorded.metrics.wall_seconds == 1.0
        assert run_check(tmp_path) == 0

    def test_unreproducible_solves_fail(self, tmp_path, capsys, monkeypatch):
        """Deterministic metrics that differ across the solves print a
        FAIL line and fail the gate, whatever the thresholds say."""
        record_baselines(tmp_path, [GRAPH])
        real = regression.measure_experiment
        calls = iter(range(100))

        def drifting(*args, **kwargs):
            metrics, result = real(*args, **kwargs)
            bump = 1.0 + 1e-9 * next(calls)
            return replace(metrics,
                           total_work=metrics.total_work * bump), result

        monkeypatch.setattr(regression, "measure_experiment", drifting)
        assert run_check(tmp_path) == 1
        out = capsys.readouterr().out
        assert ("FAIL asia_osm: deterministic metrics differ across 3 "
                "solves") in out
        assert "PASS asia_osm" in out  # within thresholds, still failed
        assert "0/1 baselines within thresholds" in out


# -- golden baselines ---------------------------------------------------------

GOLDEN = {family.label: family for family in GOLDEN_FAMILIES}

#: The cheapest file each family can record (tiny profiles, the smallest
#: graph); a family missing here is tested at its first registry file.
TINY = {
    "service": ("service_tiny", {"profile": "tiny", "seed": 0}),
    "metrics": ("metrics_service_tiny",
                {"kind": "service", "target": "tiny", "seed": 0}),
}


def _tiny(family):
    return TINY.get(family.label) or next(iter(family.files.items()))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """``record(family) -> (directory, doc)``: each family recorded once,
    at its :data:`TINY` params, into its own directory.  The doc is
    re-read on every call, so a test may tamper with its copy."""
    paths = {}

    def record(family):
        if family.label not in paths:
            directory = tmp_path_factory.mktemp(family.label)
            name, params = _tiny(family)
            record_golden(directory, family, name, params)
            paths[family.label] = directory / f"{name}.json"
        path = paths[family.label]
        return path.parent, json.loads(path.read_text())

    return record


def _tamper(doc, prefix=""):
    """Bump the first numeric leaf of ``doc`` in place; returns its path
    as the gate's ``[REG]`` line prints it (``None`` if there is none)."""
    items = sorted(doc.items()) if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(doc, dict):
            path = f"{prefix}.{key}" if prefix else str(key)
        else:
            path = f"{prefix}[{key}]"
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            doc[key] = value + 1
            return path
        if isinstance(value, (dict, list)):
            found = _tamper(value, path)
            if found is not None:
                return found
    return None


@pytest.mark.parametrize("family", GOLDEN_FAMILIES, ids=lambda f: f.label)
class TestGoldenFamilies:
    """The contract every registry entry meets, one body for all."""

    def test_save_load_roundtrip_is_byte_identical(self, family, tmp_path):
        name, params = _tiny(family)
        path = tmp_path / f"{name}.json"
        write_json(path, golden_doc(family, name, params, {"x": [1, 2.5]}))
        first = path.read_bytes()
        loaded_family, doc = load_baseline(path)
        assert loaded_family is family
        assert doc == json.loads(first)
        write_json(path, doc)
        assert path.read_bytes() == first

    def test_rejects_unknown_schema(self, family, tmp_path, capsys):
        name, params = _tiny(family)
        doc = golden_doc(family, name, params, {})
        doc["schema"] = family.schema.rsplit("/", 1)[0] + "/999"
        path = tmp_path / f"{name}.json"
        write_json(path, doc)
        with pytest.raises(ValueError, match="unknown schema"):
            load_baseline(path)
        assert run_check(tmp_path) == 2
        assert (f"INVALID baseline {path}: unknown schema"
                in capsys.readouterr().out)

    def test_record_then_check_passes(self, family, recorded, capsys):
        directory, doc = recorded(family)
        assert doc["schema"] == family.schema
        assert run_check(directory) == 0
        out = capsys.readouterr().out
        assert f"PASS {doc['name']} (exact match, " in out
        assert "1/1 baselines within thresholds" in out

    def test_tampered_expected_fails(self, family, recorded, tmp_path,
                                     capsys):
        _, doc = recorded(family)
        path = _tamper(doc["expected"])
        assert path is not None
        write_json(tmp_path / f"{doc['name']}.json", doc)
        assert run_check(tmp_path) == 1
        out = capsys.readouterr().out
        assert f"FAIL {doc['name']}" in out
        assert f"  [REG] {path}: " in out


def _truncate(path):
    path.write_text(path.read_text()[:100])


def _edit(fn):
    """A file corrupter that applies ``fn`` to the parsed document."""
    def corrupt(path):
        doc = json.loads(path.read_text())
        fn(doc)
        write_json(path, doc)
    return corrupt


class TestInvalidBaselines:
    """A bad file is reported before anything re-runs, with exit 2."""

    @pytest.mark.parametrize("file,corrupt,reason", [
        ("asia_osm.json", _edit(lambda d: d.update(schema="repro.baseline/999")),
         "unknown schema 'repro.baseline/999'"),
        ("service_quick.json", _truncate, "unreadable JSON"),
        ("memory_quick.json", _edit(lambda d: d.pop("graph")),
         "missing field(s) 'graph'"),
    ], ids=["unknown-schema", "truncated", "missing-param"])
    def test_cli_check_reports_invalid_before_rerun(
            self, tmp_path, capsys, file, corrupt, reason):
        from repro.bench.__main__ import main as bench_main

        for src in regression.default_baseline_dir().glob("*.json"):
            (tmp_path / src.name).write_bytes(src.read_bytes())
        corrupt(tmp_path / file)
        assert bench_main(["--check", "--baselines", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert f"INVALID baseline {tmp_path / file}: {reason}" in out
        assert "1 baseline file(s) invalid" in out
        # Nothing was re-measured: no perf or golden verdict printed.
        assert "PASS" not in out and "FAIL" not in out and "[OK]" not in out

    @pytest.mark.parametrize("corrupt,reason", [
        (_edit(lambda d: d.pop("metrics")), "missing field 'metrics'"),
        (_edit(lambda d: d.update(seed="x")), "bad field"),
        (lambda path: path.write_text("[1, 2]\n"),
         "expected a JSON object, got list"),
    ], ids=["missing-field", "bad-field", "non-object"])
    def test_load_rejects_broken_file(self, tmp_path, corrupt, reason):
        path = tmp_path / "b.json"
        _baseline().save(path)
        corrupt(path)
        with pytest.raises(ValueError, match=re.escape(reason)):
            load_baseline(path)


class TestServiceBaseline:
    def test_save_load_roundtrip(self, tmp_path):
        doc = golden_doc(GOLDEN["service"], "service_tiny",
                         {"profile": "tiny", "seed": 0},
                         {"stats": {"clock_units": 1}})
        path = tmp_path / "service_tiny.json"
        write_json(path, doc)
        assert load_baseline(path) == (GOLDEN["service"], doc)
        assert (json.loads(path.read_text())["schema"]
                == "repro.service-baseline/1")

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.service-baseline/9",
                                    "name": "x", "profile": "tiny",
                                    "seed": 0, "expected": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_compare_service_docs_diffs(self):
        exp = {"a": 1, "b": {"c": [1, 2]}, "gone": 3}
        act = {"a": 1, "b": {"c": [1, 5]}, "new": 4}
        diffs = regression.compare_docs(exp, act)
        paths = {p for p, _, _ in diffs}
        assert paths == {"b.c[1]", "gone", "new"}
        assert regression.compare_docs(exp, dict(exp)) == []

    def test_record_then_check_passes(self, tmp_path, capsys):
        record_golden(tmp_path, GOLDEN["service"], "service_tiny",
                      {"profile": "tiny", "seed": 0})
        assert run_check(tmp_path) == 0
        out = capsys.readouterr().out
        assert "PASS service_tiny (exact match, profile=tiny, seed=0)" in out
        assert "1/1 baselines within thresholds" in out

    def test_drifted_stats_fail(self, tmp_path, capsys):
        doc = record_golden(tmp_path, GOLDEN["service"], "service_tiny",
                            {"profile": "tiny", "seed": 0})
        doc["expected"]["stats"]["clock_units"] += 1
        (tmp_path / "service_tiny.json").write_text(json.dumps(doc))
        assert run_check(tmp_path) == 1
        out = capsys.readouterr().out
        assert "FAIL service_tiny" in out
        assert "[REG] stats.clock_units" in out

    def test_mixed_dir_dispatches_by_schema(self, tmp_path, capsys):
        record_baselines(tmp_path, [GRAPH])
        record_golden(tmp_path, GOLDEN["service"], "service_tiny",
                      {"profile": "tiny", "seed": 0})
        assert run_check(tmp_path) == 0
        assert "2/2 baselines within thresholds" in capsys.readouterr().out


class TestMemoryBaseline:
    def test_roundtrip_and_schema(self, recorded):
        directory, doc = recorded(GOLDEN["memory"])
        path = directory / "memory_quick.json"
        assert load_baseline(path) == (GOLDEN["memory"], doc)
        assert doc["schema"] == "repro.memory-baseline/1"
        assert doc["graph"] == GRAPH and doc["seed"] == 42

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.memory-baseline/9",
                                    "name": "x", "graph": GRAPH,
                                    "seed": 42, "expected": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_record_then_check_passes(self, recorded, capsys):
        directory, _ = recorded(GOLDEN["memory"])
        assert run_check(directory) == 0
        out = capsys.readouterr().out
        assert "PASS memory_quick (exact match, graph=asia_osm, seed=42)" in out

    def test_tampered_expectation_fails_with_diff(self, recorded, tmp_path,
                                                  capsys):
        _, doc = recorded(GOLDEN["memory"])
        doc["expected"]["logical"]["peak_bytes"] += 1
        doc["expected"]["events"][0]["nbytes"] += 1
        write_json(tmp_path / "memory_quick.json", doc)
        assert run_check(tmp_path) == 1
        out = capsys.readouterr().out
        assert "FAIL memory_quick" in out
        assert "logical.peak_bytes" in out

    def test_measure_is_deterministic_and_validated(self):
        a = GOLDEN["memory"].produce(graph=GRAPH, seed=42)
        b = GOLDEN["memory"].produce(graph=GRAPH, seed=42)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["logical"]["peak_bytes"] > 0
        assert a["logical"]["events_dropped"] == 0

    def test_expected_names_include_memory(self):
        assert "memory_quick.json" in regression.expected_baseline_names()


class TestCommittedBaselines:
    """The real gate: the files under benchmarks/baselines must pass."""

    def test_committed_baselines_pass_on_clean_tree(self):
        directory = regression.default_baseline_dir()
        assert directory.is_dir(), directory
        assert run_check(directory, print_fn=lambda *_: None) == 0


class TestTraceDiffHelpers:
    @staticmethod
    def _trace(**config):
        record, _ = record_solve(load_graph(GRAPH),
                                 LeidenConfig(seed=42, **config))
        return trace_doc(record.recorder, experiment=GRAPH, seed=42)

    def test_identical_docs_have_no_deterministic_diffs(self):
        a = self._trace()
        b = self._trace()
        rows = regression.diff_trace_docs(a, b)
        det = [r for r in rows if r["kind"] in ("counter", "derived")
               and r["a"] != r["b"]]
        assert det == []
        _, n = regression.format_trace_diff(rows, label_a="a", label_b="b")
        assert n == 0

    def test_counter_divergence_is_flagged(self):
        a = self._trace()
        b = self._trace(max_passes=1)
        rows = regression.diff_trace_docs(a, b)
        assert any(r["kind"] == "counter" and r["a"] != r["b"]
                   for r in rows)
        text, n = regression.format_trace_diff(rows, label_a="a",
                                               label_b="b")
        assert n > 0 and "[DIFF]" in text


class TestMissingBaselines:
    """`bench --check` must hard-error when expected files are absent —
    a gate that silently skips missing baselines checks nothing."""

    def test_expected_names_cover_all_recorder_families(self):
        names = regression.expected_baseline_names()
        assert names == sorted(
            [f"{g}.json" for g in regression.DEFAULT_BASELINE_GRAPHS]
            + [f"{name}.json" for family in GOLDEN_FAMILIES
               for name in family.files])
        assert len(set(names)) == len(names) == 7

    def test_partial_dir_fails_before_any_rerun(self, tmp_path, capsys):
        # A lone perf baseline: complete enough to re-run, but the gate
        # must refuse before measuring anything.
        record_baselines(tmp_path, [GRAPH])
        assert run_check(tmp_path, require_complete=True) == 2
        out = capsys.readouterr().out
        assert "MISSING baseline" in out
        assert "service_quick.json" in out
        assert "--update-baselines" in out
        assert "[OK]" not in out  # no baseline was re-measured

    def test_partial_dir_passes_without_require_complete(self, tmp_path):
        record_baselines(tmp_path, [GRAPH])
        assert run_check(tmp_path) == 0

    def test_cli_check_is_strict(self, tmp_path, capsys):
        from repro.bench.__main__ import main as bench_main

        record_baselines(tmp_path, [GRAPH])
        assert bench_main(["--check", "--baselines", str(tmp_path)]) == 2
        assert "MISSING baseline" in capsys.readouterr().out

    def test_cli_check_empty_dir_is_error(self, tmp_path, capsys):
        from repro.bench.__main__ import main as bench_main

        empty = tmp_path / "none"
        empty.mkdir()
        assert bench_main(["--check", "--baselines", str(empty)]) == 2
        assert "no baselines" in capsys.readouterr().out

    def test_committed_tree_is_complete(self):
        # The repo's own baseline dir must satisfy the strict gate's
        # completeness precondition (the re-run itself is the slow CI
        # job; here we only assert no file is missing).
        directory = regression.default_baseline_dir()
        found = {p.name for p in directory.glob("*.json")}
        missing = [n for n in regression.expected_baseline_names()
                   if n not in found]
        assert missing == []
