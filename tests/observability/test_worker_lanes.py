"""Worker lanes of a profiled ``process`` solve.

At the default pool gate a small graph such as ``asia_osm`` is scanned
wholly in the parent, so its profile has no worker lane.  With the gate
at 0 every move batch goes to the pool, and each task must show up as a
``move_scan`` event on its worker's lane, carrying the edges it scanned.
"""

import json

from repro.cli import main
from repro.observability.profiler import (
    CAT_WORKER,
    PID_WORKERS,
    validate_chrome_trace,
)
from tests.conftest import pool_gate


def test_move_scan_events_on_every_worker_lane(tmp_path, capsys):
    record = tmp_path / "record"
    with pool_gate(0) as batches:
        assert main([
            "run", "asia_osm", "--seed", "42", "--engine", "process",
            "--workers", "2", "--record", str(record),
        ]) == 0
    doc = json.loads((record / "profile.chrome.json").read_text())
    validate_chrome_trace(doc)
    scans = [ev for ev in doc["traceEvents"]
             if ev.get("pid") == PID_WORKERS and ev.get("ph") == "X"]
    assert scans
    assert {ev["name"] for ev in scans} == {"move_scan"}
    assert {ev["cat"] for ev in scans} == {CAT_WORKER}
    assert {ev["tid"] for ev in scans} == {0, 1}
    assert batches and all(path == "pool" for path, _ in batches)
    assert (sum(ev["args"]["edges"] for ev in scans)
            == sum(edges for _, edges in batches))
