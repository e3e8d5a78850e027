"""Smoke tests: every example script runs cleanly end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: Text each example must produce (proves it did its work, not just ran).
EXPECTED_OUTPUT = {
    "quickstart.py": "internally-disconnected communities: 0",
    "web_crawl_communities.py": "greedy-default",
    "road_network_scaling.py": "Paper reference (Figure 9)",
    "compare_implementations.py": "out of memory",
    "dynamic_updates.py": "work vs scratch",
    "file_io_pipeline.py": "membership saved and verified",
    "cpm_resolution.py": "resolution limit",
    "community_analysis.py": "seed stability",
    "partition_server.py": "served == from-scratch: True",
    "process_engine.py": "bitwise-identical to the simulated oracle: True",
    "profile_smoke.py": "convergence monitor",
    "metrics_smoke.py": "parses cleanly",
    "memory_smoke.py": "double runs byte-identical: True",
}


def test_all_examples_covered():
    names = {p.name for p in EXAMPLES}
    assert names == set(EXPECTED_OUTPUT), (
        "examples/ and EXPECTED_OUTPUT out of sync"
    )


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert EXPECTED_OUTPUT[script.name] in proc.stdout
