"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.graph.io_edgelist import write_edgelist
from tests.conftest import two_cliques_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    write_edgelist(two_cliques_graph(), path)
    return path


def _record(directory, *argv) -> Path:
    """``repro run <argv> --record DIR``; returns ``DIR``."""
    assert main(["run", *map(str, argv), "--record", str(directory)]) == 0
    return directory


def _read(directory, name):
    return json.loads((directory / name).read_text())


#: ``repro serve`` on the tiny workload, without the from-scratch check.
SERVE_TINY = ["serve", "--workload", "tiny", "--seed", "0", "--no-verify"]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """The record directory of one recorded tiny serve run."""
    directory = tmp_path_factory.mktemp("served")
    assert main(SERVE_TINY + ["--output", str(directory / "stats.json"),
                              "--record", str(directory)]) == 0
    return directory


class TestCli:
    def test_list_datasets(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "asia_osm" in out and "sk-2005" in out

    def test_run_on_file(self, graph_file, capsys):
        assert main([str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "communities: 2" in out
        assert "modularity:" in out

    def test_run_on_dataset_name(self, capsys):
        assert main(["asia_osm", "--max-passes", "2"]) == 0
        assert "vertices: 12000" in capsys.readouterr().out

    def test_louvain(self, graph_file, capsys):
        assert main([str(graph_file), "--algorithm", "louvain"]) == 0
        assert "louvain" in capsys.readouterr().out

    def test_output_membership(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "members.txt"
        assert main([str(graph_file), "--output", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 10
        assert set(lines) == {"0", "1"}

    def test_check_connectivity(self, graph_file, capsys):
        assert main([str(graph_file), "--check-connectivity"]) == 0
        assert "disconnected communities: 0" in capsys.readouterr().out

    def test_variant_and_refinement_flags(self, graph_file, capsys):
        assert main([str(graph_file), "--variant", "heavy",
                     "--refinement", "random", "--seed", "3"]) == 0
        assert "random, heavy" in capsys.readouterr().out

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            main(["/nonexistent/file.txt"])

    def test_missing_input(self):
        with pytest.raises(SystemExit):
            main([])

    def test_quality_cpm(self, graph_file, capsys):
        assert main([str(graph_file), "--quality", "cpm",
                     "--resolution", "0.3"]) == 0
        assert "communities: 2" in capsys.readouterr().out

    def test_engine_loop(self, graph_file, capsys):
        assert main([str(graph_file), "--engine", "loop"]) == 0
        assert "communities: 2" in capsys.readouterr().out

    def test_summary_flag(self, graph_file, capsys):
        assert main([str(graph_file), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "coverage:" in out
        assert "community sizes" in out

    def test_mtx_input(self, tmp_path, capsys):
        from repro.graph.io_mtx import write_mtx
        p = tmp_path / "g.mtx"
        write_mtx(two_cliques_graph(), p)
        assert main([str(p)]) == 0
        assert "communities: 2" in capsys.readouterr().out

    def test_metis_input(self, tmp_path, capsys):
        from repro.graph.io_metis import write_metis
        p = tmp_path / "g.graph"
        write_metis(two_cliques_graph(), p)
        assert main([str(p)]) == 0
        assert "communities: 2" in capsys.readouterr().out

    def test_run_subcommand_alias(self, graph_file, capsys):
        """`repro run <input>` behaves exactly like the bare form."""
        assert main(["run", str(graph_file)]) == 0
        assert "communities: 2" in capsys.readouterr().out


class TestTraceSubcommand:
    """The trace of a recorded run (``trace.json``), which ``repro
    trace <input>`` wrote before ``run --record`` replaced it."""

    def test_trace_to_stdout(self, graph_file, tmp_path):
        doc = _read(_record(tmp_path / "rec", graph_file), "trace.json")
        assert doc["schema"] == "repro.trace/2"
        assert doc["spans"][0]["name"] == "leiden"
        pass_spans = [c for c in doc["spans"][0]["children"]
                      if c["name"] == "pass"]
        assert pass_spans
        phase_names = {c["name"] for c in pass_spans[0]["children"]}
        assert {"local_move", "refine", "aggregate"} <= phase_names
        assert doc["counters"]["barriers"] > 0
        assert doc["meta"]["metrics"]["num_communities"] == 2
        assert doc["meta"]["num_threads"] == 64

    def test_trace_to_file_compact(self, graph_file, tmp_path, capsys):
        """The run's summary is printed, then one line naming the
        directory; every JSON document is indented."""
        d = _record(tmp_path / "rec", graph_file)
        out = capsys.readouterr().out
        assert "communities: 2" in out
        assert f"7 documents written to {d}" in out
        assert sorted(p.name for p in d.iterdir()) == [
            "memory.chrome.json", "memory.json", "metrics.json",
            "metrics.prom", "profile.chrome.json", "profile.txt",
            "trace.json"]
        text = (d / "trace.json").read_text()
        assert len(text.strip().splitlines()) > 1

    def test_trace_dataset_name(self, tmp_path):
        doc = _read(_record(tmp_path / "rec", "asia_osm", "--max-passes",
                            "2", "--seed", "1"), "trace.json")
        assert doc["meta"]["experiment"] == "asia_osm"
        assert doc["meta"]["seed"] == 1
        assert doc["derived"]["pruning_hit_rate"] >= 0.0


class TestBenchSubcommand:
    def test_bench_check_passes_on_clean_tree(self, capsys):
        assert main(["bench", "--check"]) == 0
        out = capsys.readouterr().out
        assert "baselines within thresholds" in out
        assert "FAIL" not in out

    def test_bench_check_custom_dir(self, tmp_path, capsys):
        """--baselines pointing at an empty dir exits 2 (no baselines)."""
        assert main(["bench", "--check",
                     "--baselines", str(tmp_path)]) == 2
        assert "no baselines" in capsys.readouterr().out

    def test_bench_update_then_check_roundtrip(self, tmp_path, capsys):
        assert main(["bench", "--update-baselines",
                     "--baselines", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "recorded baseline" in out
        assert "recorded service baseline" in out
        assert "recorded metrics baseline" in out
        assert "recorded memory baseline" in out
        assert main(["bench", "--check",
                     "--baselines", str(tmp_path)]) == 0
        assert "7/7 baselines within thresholds" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--trace", "--profile", "--mem",
                                      "--threads"])
    def test_bench_bundle_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", flag, "x"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestServeSubcommand:
    def test_serve_to_stdout(self, capsys):
        assert main(["serve", "--workload", "tiny", "--seed", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.service-workload/1"
        assert doc["membership_matches_scratch"] == {"com-Orkut": True}
        assert doc["stats"]["counters"]["queries_served"] == 40

    def test_serve_deterministic_output_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["serve", "--workload", "tiny", "--seed", "0",
                     "--no-verify", "--output", str(a)]) == 0
        assert main(["serve", "--workload", "tiny", "--seed", "0",
                     "--no-verify", "--output", str(b)]) == 0
        assert "stats written to" in capsys.readouterr().out
        assert a.read_text() == b.read_text()

    def test_serve_trace_output(self, served):
        doc = _read(served, "trace.json")
        assert doc["schema"] == "repro.trace/2"
        assert doc["meta"] == {"experiment": "serve:tiny", "seed": 0}
        span_names = {s["name"] for s in doc["spans"]}
        assert "service.detect" in span_names
        assert "service_request_seconds_p50" in doc["derived"]

    def test_serve_no_coalesce(self, capsys):
        assert main(["serve", "--workload", "tiny", "--seed", "0",
                     "--no-coalesce", "--no-verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["counters"]["updates_coalesced"] == 0

    def test_serve_metrics_output(self, served):
        doc = _read(served, "metrics.json")
        assert doc["schema"] == "repro.metrics/1"
        assert "service_requests_total" in doc["families"]
        # The request latencies are wall clock, so no trace_* families.
        assert not any(k.startswith("trace_") for k in doc["families"])
        assert doc["meta"]["clock_units"] > 0
        # Neither document carries an SLO health block.
        stats = _read(served, "stats.json")
        assert "health" not in doc and "health" not in stats["stats"]

    def test_serve_metrics_deterministic(self, served, tmp_path, capsys):
        """Every document but the trace is byte-identical across runs."""
        again = tmp_path / "again"
        assert main(SERVE_TINY + ["--output", str(tmp_path / "stats.json"),
                                  "--record", str(again)]) == 0
        for name in ("metrics.json", "metrics.prom", "memory.json",
                     "memory.chrome.json", "profile.chrome.json",
                     "profile.txt"):
            assert (again / name).read_bytes() == \
                (served / name).read_bytes(), name

    def test_serve_profile_chrome_validates(self, served):
        from repro.observability.metrics import validate_prometheus
        from repro.observability.profiler import validate_chrome_trace

        doc = _read(served, "profile.chrome.json")
        assert validate_chrome_trace(doc)["events"] > 0
        assert any(e.get("cat") == "request" for e in doc["traceEvents"])
        assert validate_chrome_trace(
            _read(served, "memory.chrome.json"))["events"] > 0
        assert validate_prometheus(
            (served / "metrics.prom").read_text())["families"] > 0
        assert "service lane:" in (served / "profile.txt").read_text()

    def test_serve_unknown_profile_exits_2_with_list(self, capsys):
        assert main(["serve", "--workload", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "VALID workload profile tiny" in err
        assert "VALID workload profile quick" in err
        assert "VALID workload profile smoke" in err
        assert "error: unknown workload profile 'bogus'" in err

    def test_serve_reqtrace_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workload", "tiny", "--reqtrace", "x.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --reqtrace" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trace", "--profile", "--metrics",
                                      "--mem"])
    def test_serve_output_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workload", "tiny", flag, "x.json"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestRetiredSubcommands:
    """``fleet``, ``reqtrace``, ``reorder``, ``profile``, ``metrics`` and
    ``mem`` are no subcommands: the first token is the run's graph
    argument, so their flags fail run's parser.  ``--relabel`` is no
    flag of any subcommand."""

    @pytest.mark.parametrize("argv", [
        ["fleet", "--shards", "3"],
        ["reqtrace", "doc.json", "--slowest", "5"],
        ["reorder", "asia_osm", "--mode", "community"],
        ["profile", "asia_osm", "--chrome", "x.json"],
        ["metrics", "asia_osm", "--format", "prom"],
        ["mem", "asia_osm", "--rss"],
    ])
    def test_flags_fall_through_to_run(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "gve-leiden: error: unrecognized arguments" in err

    def test_bare_name_is_an_unknown_graph(self):
        with pytest.raises(SystemExit, match="neither a file nor a dataset"):
            main(["fleet"])

    def test_bare_reorder_is_an_unknown_graph(self):
        with pytest.raises(SystemExit, match="neither a file nor a dataset"):
            main(["reorder"])

    @pytest.mark.parametrize("name", ["profile", "metrics", "mem"])
    def test_bare_document_subcommand_is_an_unknown_graph(self, name):
        with pytest.raises(SystemExit, match="neither a file nor a dataset"):
            main([name])

    def test_trace_takes_no_graph(self, capsys):
        """``repro trace`` only compares two saved traces."""
        with pytest.raises(SystemExit) as exc:
            main(["trace", "asia_osm"])
        assert exc.value.code == 2
        assert "the following arguments are required: --diff" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "asia_osm"],
        ["serve", "--workload", "tiny"],
        ["bench", "--engines"],
    ])
    def test_relabel_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--relabel", "community"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --relabel" in err
        assert "Traceback" not in err


class TestMemSubcommand:
    """The memory report of a recorded run (``memory.json``,
    ``memory.chrome.json``), which ``repro mem`` wrote before ``run
    --record`` replaced it."""

    def test_mem_json_to_stdout(self, graph_file, tmp_path):
        doc = _read(_record(tmp_path / "rec", graph_file), "memory.json")
        assert doc["schema"] == "repro.memory/1"
        assert doc["meta"]["engine"] == "batch"
        assert doc["logical"]["peak_bytes"] > 0
        assert "csr" in doc["logical"]["components"]
        assert "workspace" in doc["logical"]["components"]
        # The report never carries real RSS fields.
        assert set(doc) == {"schema", "meta", "logical", "physical",
                            "events"}
        assert "rss" not in json.dumps(doc["logical"])

    def test_mem_double_run_byte_identical(self, tmp_path):
        a = _record(tmp_path / "a", "asia_osm")
        b = _record(tmp_path / "b", "asia_osm")
        for name in ("memory.json", "memory.chrome.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_mem_chrome_export_validates(self, graph_file, tmp_path):
        from repro.observability.profiler import validate_chrome_trace

        doc = _read(_record(tmp_path / "rec", graph_file),
                    "memory.chrome.json")
        stats = validate_chrome_trace(doc)
        assert stats["events"] > 0
        assert any(e.get("name") == "mem_live_bytes"
                   for e in doc["traceEvents"])

    def test_mem_worker_count_invariant_logical_section(self, tmp_path):
        docs = [_read(_record(tmp_path / w, "asia_osm", "--engine",
                              "process", "--workers", w), "memory.json")
                for w in ("1", "2")]
        assert docs[0]["logical"] == docs[1]["logical"]

    def test_serve_mem_output(self, served, tmp_path):
        again = tmp_path / "again"
        assert main(SERVE_TINY + ["--output", str(tmp_path / "stats.json"),
                                  "--record", str(again)]) == 0
        assert (again / "memory.json").read_bytes() == \
            (served / "memory.json").read_bytes()
        doc = _read(served, "memory.json")
        assert doc["schema"] == "repro.memory/1"
        assert set(doc["logical"]["components"]) == {"store"}
        assert doc["logical"]["components"]["store"]["allocs"] > 0


class TestMetricsSubcommand:
    """The metrics of a recorded run (``metrics.json``,
    ``metrics.prom``), which ``repro metrics`` wrote before ``run
    --record`` replaced it."""

    def test_metrics_json_to_stdout(self, graph_file, tmp_path):
        doc = _read(_record(tmp_path / "rec", graph_file), "metrics.json")
        assert doc["schema"] == "repro.metrics/1"
        assert doc["meta"]["num_communities"] == 2
        assert doc["families"]["leiden_passes_total"]["series"][0][
            "value"] >= 1
        assert "runtime_parallel_regions_total" in doc["families"]
        assert any(k.startswith("trace_") for k in doc["families"])

    def test_metrics_prometheus_output(self, graph_file, tmp_path):
        from repro.observability.metrics import validate_prometheus

        text = (_record(tmp_path / "rec", graph_file)
                / "metrics.prom").read_text()
        assert "# TYPE leiden_passes_total counter" in text
        assert "# TYPE trace_batch_size histogram" in text
        assert validate_prometheus(text)["families"] > 10

    def test_metrics_double_run_byte_identical(self, graph_file, tmp_path):
        a = _record(tmp_path / "a", graph_file)
        b = _record(tmp_path / "b", graph_file)
        for name in ("metrics.json", "metrics.prom"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_metrics_dataset_name_compact(self, tmp_path):
        """The snapshot's meta names the registry graph and the run's
        own flags; the snapshot is indented JSON."""
        d = _record(tmp_path / "rec", "asia_osm", "--max-passes", "2")
        doc = _read(d, "metrics.json")
        assert doc["meta"]["experiment"] == "asia_osm"
        assert doc["meta"]["num_passes"] <= 2
        assert len((d / "metrics.json").read_text().splitlines()) > 1


class TestProfileSubcommand:
    """The timeline of a recorded run at 8 threads (``profile.txt``,
    ``profile.chrome.json``), which ``repro profile`` wrote before
    ``run --record`` replaced it."""

    def test_profile_report_to_stdout(self, graph_file, tmp_path):
        text = (_record(tmp_path / "rec", graph_file)
                / "profile.txt").read_text()
        assert "per-phase attribution" in text
        assert "scheduling-policy attribution" in text
        assert "convergence monitor" in text

    def test_profile_chrome_export_is_valid_and_deterministic(
            self, graph_file, tmp_path):
        from repro.observability.profiler import validate_chrome_trace

        a = _record(tmp_path / "a", graph_file) / "profile.chrome.json"
        b = _record(tmp_path / "b", graph_file) / "profile.chrome.json"
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        stats = validate_chrome_trace(doc)
        assert stats["named_lanes"] >= 8
        assert doc["otherData"]["schema"] == "repro.profile/1"

    def test_profile_report_to_file(self, graph_file, tmp_path):
        text = (_record(tmp_path / "rec", graph_file)
                / "profile.txt").read_text()
        assert "threads: 8" in text
        assert "top 5 regions" in text

    def test_profile_dataset_name(self, tmp_path):
        d = _record(tmp_path / "rec", "asia_osm", "--max-passes", "1",
                    "--seed", "1")
        assert (d / "profile.txt").read_text().startswith(
            "profile: asia_osm\n")


class TestTraceDiff:
    @staticmethod
    def _write_trace(path, graph_file, extra=()):
        d = _record(path.with_suffix(""), graph_file, *extra)
        (d / "trace.json").rename(path)

    def test_diff_identical_traces_is_clean(self, graph_file, tmp_path,
                                            capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_trace(a, graph_file)
        self._write_trace(b, graph_file)
        assert main(["trace", "--diff", str(a), str(b)]) == 0
        assert "0 deterministic field(s) differ" in capsys.readouterr().out

    def test_diff_strict_flags_divergence(self, graph_file, tmp_path,
                                          capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_trace(a, graph_file)
        self._write_trace(b, graph_file, extra=["--max-passes", "1"])
        assert main(["trace", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "[DIFF]" in out
        # --strict turns deterministic differences into exit code 1
        assert main(["trace", "--diff", str(a), str(b), "--strict"]) == 1

    def test_diff_missing_file_errors(self, tmp_path, graph_file):
        a = tmp_path / "a.json"
        self._write_trace(a, graph_file)
        with pytest.raises(SystemExit):
            main(["trace", "--diff", str(a), str(tmp_path / "nope.json")])

    @pytest.mark.parametrize("content,reason", [
        ('{"schema": "repro.trace/2", "spans": [', "Expecting value"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"schema": "repro.metrics/1"}', "unsupported trace schema"),
        ('{"schema": "repro.trace/1", "spans": []}',
         "unsupported trace schema"),
    ], ids=["truncated", "top-level-list", "wrong-schema", "trace-v1"])
    def test_diff_bad_file_exits_2(self, graph_file, tmp_path, capsys,
                                   content, reason):
        a, bad = tmp_path / "a.json", tmp_path / "bad.json"
        self._write_trace(a, graph_file)
        bad.write_text(content)
        capsys.readouterr()
        assert main(["trace", "--diff", str(a), str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"error: {bad}: " in captured.err
        assert reason in captured.err
        assert captured.out == ""

    def test_trace_without_input_or_diff_errors(self):
        with pytest.raises(SystemExit):
            main(["trace"])


class TestCountFlags:
    """``--workers`` and ``--max-passes`` below 1, a ``--resolution``
    that is not a finite number above 0 and a ``--record`` path that is
    a file exit 2 at parse time, with argparse's one-line error instead
    of a traceback from deep inside, and before a recorded run writes
    anything."""

    @staticmethod
    def _exit_code(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["asia_osm", "--engine", "process"],
        ["run", "asia_osm"],
        ["run", "asia_osm", "--record", "{rec}"],
        ["asia_osm", "--record", "{rec}"],
        ["run", "asia_osm", "--engine", "process", "--record", "{rec}"],
        ["run", "asia_osm", "--algorithm", "louvain", "--record", "{rec}"],
        ["run", "asia_osm", "--engine", "process"],
        ["bench", "--engines"],
    ])
    def test_workers_below_one_exits_2(self, argv, tmp_path, capsys):
        rec = tmp_path / "rec"
        code, err = self._exit_code(
            [a.format(rec=rec) for a in argv] + ["--workers", "0"], capsys)
        assert code == 2
        assert "argument --workers: must be >= 1" in err
        assert "Traceback" not in err
        assert not rec.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "asia_osm"],
        ["run", "asia_osm", "--record", "{rec}"],
        ["asia_osm", "--record", "{rec}"],
        ["run", "asia_osm", "--engine", "process", "--record", "{rec}"],
        ["run", "asia_osm", "--algorithm", "louvain", "--record", "{rec}"],
    ])
    def test_max_passes_below_one_exits_2(self, argv, tmp_path, capsys):
        rec = tmp_path / "rec"
        code, err = self._exit_code(
            [a.format(rec=rec) for a in argv] + ["--max-passes", "0"],
            capsys)
        assert code == 2
        assert "argument --max-passes: must be >= 1" in err
        assert "Traceback" not in err
        assert not rec.exists()

    @pytest.mark.parametrize("argv", [["run", "asia_osm"],
                                      ["serve", "--workload", "tiny"]])
    def test_record_onto_a_file_exits_2(self, argv, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        code, err = self._exit_code(argv + ["--record", str(target)], capsys)
        assert code == 2
        assert f"argument --record: {target} is not a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_resolution_not_positive_finite_exits_2(self, value, capsys):
        code, err = self._exit_code(
            ["run", "asia_osm", f"--resolution={value}"], capsys)
        assert code == 2
        assert "argument --resolution: must be a finite number > 0" in err
        assert "Traceback" not in err

    def test_negative_and_non_integer_rejected(self, capsys):
        code, err = self._exit_code(["run", "asia_osm", "--workers", "-2"],
                                    capsys)
        assert code == 2 and "must be >= 1" in err
        code, err = self._exit_code(
            ["run", "asia_osm", "--max-passes", "x"], capsys)
        assert code == 2 and "argument --max-passes" in err

    def test_threads_engine_is_gone(self, capsys):
        code, err = self._exit_code(["asia_osm", "--engine", "threads"],
                                    capsys)
        assert code == 2
        assert "invalid choice: 'threads'" in err


class TestMalformedGraphFiles:
    """A file a reader rejects exits 1 with one ``error:`` line naming
    the file, as a missing file does, and no traceback."""

    @pytest.mark.parametrize("name,text,reason", [
        ("trunc.mtx",
         "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.0\n",
         "declared 2 entries but found 1"),
        ("short.graph", "3 2\n2\n1 3\n", "expected 3 vertex lines"),
        ("bad.txt", "0 1\n1 x\n", "line 2:"),
        ("token.mtx",
         "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n",
         "line 3: bad entry"),
        ("token.graph", "2 1\n2\n2 x\n", "line 3: vertex 2: neighbor 'x'"),
        ("nan.txt", "0 1 nan\n", "line 1: weight 'nan'"),
        ("negative.txt", "0 1 -5\n", "line 1: weight '-5'"),
        ("wide.txt", "0 1\n3000000000 1\n",
         "line 2: vertex id 3000000000 does not fit in int32"),
        ("wide.mtx",
         "%%MatrixMarket matrix coordinate real general\n"
         "3000000000 3000000000 1\n3000000000 1 1.0\n",
         "line 2: 3000000000 rows, but vertex ids must fit in int32"),
    ], ids=["mtx", "metis", "edgelist", "mtx-token", "metis-token",
            "edgelist-nan", "edgelist-negative", "edgelist-wide-id",
            "mtx-wide-rows"])
    def test_reader_error_is_one_line(self, tmp_path, name, text, reason):
        path = tmp_path / name
        path.write_text(text)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}: ")
        assert reason in lines[0]
