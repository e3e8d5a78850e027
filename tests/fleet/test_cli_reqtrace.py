"""``repro fleet/serve --reqtrace`` and the ``repro reqtrace`` inspector."""

import json

import pytest

from repro.cli import main
from repro.observability.profiler import validate_chrome_trace
from repro.observability.reqtrace import validate_reqtrace


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One tiny fleet run with --reqtrace; shared by the read-only tests."""
    d = tmp_path_factory.mktemp("reqtrace")
    out = d / "reqtrace.json"
    assert main(["fleet", "--shards", "2", "--profile", "tiny",
                 "--no-verify", "--reqtrace", str(out)]) == 0
    return out


class TestFleetFlag:
    def test_double_run_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["fleet", "--shards", "2", "--profile", "tiny",
                         "--no-verify", "--reqtrace", str(out)]) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        doc = json.loads(outs[0].read_text())
        validate_reqtrace(doc)
        assert doc["sampling"]["mode"] == "full"
        assert doc["meta"]["shards"] == 2

    def test_sampled_mode_drops_traces(self, tmp_path):
        out = tmp_path / "sampled.json"
        assert main(["fleet", "--shards", "2", "--profile", "tiny",
                     "--no-verify", "--reqtrace-mode", "sampled",
                     "--reqtrace", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["sampling"]["mode"] == "sampled"
        assert doc["totals"]["dropped"] > 0
        assert all(t["keep_reasons"] for t in doc["traces"])

    def test_chrome_view_validates(self, tmp_path):
        chrome = tmp_path / "reqtrace.chrome.json"
        assert main(["fleet", "--shards", "2", "--profile", "tiny",
                     "--no-verify", "--reqtrace-chrome", str(chrome)]) == 0
        doc = json.loads(chrome.read_text())
        summary = validate_chrome_trace(doc)
        assert summary["flows"] > 0
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "router" in names and len(names) >= 2

    def test_kill_run_keeps_failover_chains(self, tmp_path):
        out = tmp_path / "killed.json"
        assert main(["fleet", "--shards", "3", "--replicas", "2",
                     "--profile", "tiny", "--kill", "primary:10",
                     "--no-verify", "--reqtrace", str(out)]) == 0
        doc = json.loads(out.read_text())
        failovers = [t for t in doc["traces"] if t["failover"]]
        assert failovers
        for t in failovers:
            assert "failover" in t["keep_reasons"]
            names = [s["name"] for s in t["spans"]]
            assert names[0] == "admission" and names[-1] == "reply"


class TestServeFlag:
    def test_serve_reqtrace_document(self, tmp_path):
        out = tmp_path / "serve.json"
        assert main(["serve", "--workload", "tiny",
                     "--reqtrace", str(out)]) == 0
        doc = json.loads(out.read_text())
        validate_reqtrace(doc)
        assert doc["meta"]["experiment"] == "serve:tiny"
        assert doc["totals"]["requests"] > 0

    def test_serve_profile_merges_request_lanes(self, tmp_path):
        chrome = tmp_path / "serve.chrome.json"
        out = tmp_path / "serve.json"
        assert main(["serve", "--workload", "tiny",
                     "--profile", str(chrome),
                     "--reqtrace", str(out)]) == 0
        doc = json.loads(chrome.read_text())
        assert doc["otherData"]["reqtrace"]["kept"] > 0
        validate_chrome_trace(doc)


class TestInspector:
    def test_summary(self, traced_run, capsys):
        assert main(["reqtrace", str(traced_run)]) == 0
        out = capsys.readouterr().out
        assert "schema: repro.reqtrace/1" in out
        assert "mode: full" in out
        assert "flight dumps: 0" in out

    def test_slowest_ranked_by_latency(self, traced_run, capsys):
        assert main(["reqtrace", str(traced_run), "--slowest", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        lats = [float(line.split("latency=")[1].split()[0])
                for line in lines]
        assert lats == sorted(lats, reverse=True)

    def test_trace_id_prints_one_trace(self, traced_run, capsys):
        doc = json.loads(traced_run.read_text())
        tid = doc["traces"][0]["trace_id"]
        assert main(["reqtrace", str(traced_run), "--trace-id", tid]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["trace_id"] == tid

    def test_unknown_trace_id_exits_1(self, traced_run, capsys):
        assert main(["reqtrace", str(traced_run),
                     "--trace-id", "f" * 16]) == 1
        assert "not in document" in capsys.readouterr().err

    def test_diff_identical_exits_0(self, traced_run, tmp_path, capsys):
        twin = tmp_path / "twin.json"
        assert main(["fleet", "--shards", "2", "--profile", "tiny",
                     "--no-verify", "--reqtrace", str(twin)]) == 0
        capsys.readouterr()
        assert main(["reqtrace", "--diff", str(traced_run),
                     str(twin)]) == 0
        assert "kept sets identical" in capsys.readouterr().out

    def test_diff_full_vs_sampled_twin_is_clean(self, traced_run,
                                                tmp_path, capsys):
        # The contract the ext_fleet_reqtrace bench pins: the sampled
        # document keeps exactly what the full document annotates.
        sampled = tmp_path / "sampled.json"
        assert main(["fleet", "--shards", "2", "--profile", "tiny",
                     "--no-verify", "--reqtrace-mode", "sampled",
                     "--reqtrace", str(sampled)]) == 0
        capsys.readouterr()
        assert main(["reqtrace", "--diff", str(traced_run),
                     str(sampled)]) == 0

    def test_diff_divergent_exits_1(self, traced_run, tmp_path, capsys):
        other = tmp_path / "other.json"
        assert main(["fleet", "--shards", "3", "--replicas", "2",
                     "--profile", "tiny", "--kill", "primary:10",
                     "--no-verify", "--reqtrace", str(other)]) == 0
        capsys.readouterr()
        assert main(["reqtrace", "--diff", str(traced_run),
                     str(other)]) == 1
        assert "kept sets differ" in capsys.readouterr().out

    def test_invalid_document_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro.reqtrace/0"}')
        assert main(["reqtrace", str(bad)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_top_level_list_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        assert main(["reqtrace", str(bad)]) == 2
        assert (f"error: {bad}: expected a JSON object, got list"
                in capsys.readouterr().err)

    def test_diff_needs_two_inputs(self, traced_run, capsys):
        assert main(["reqtrace", "--diff", str(traced_run)]) == 2
        assert "expected 2" in capsys.readouterr().err
