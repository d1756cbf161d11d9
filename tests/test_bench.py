"""The benchmark still runs against ``src/``.

``bench/tracing.py`` wraps entry points that it finds by name, and
``bench/workloads.py`` reads attributes the package itself never reads.
A deletion that either depends on fails the benchmark's operations, not
the package's own tests, so each declared workload runs here once, tiny
and traced, in a fresh interpreter, and no operation may fail.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_tiny_traced_benchmark_pass_fails_no_operation(workload):
    out = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "bench" / "worker.py"), "pass",
         "--workload", workload, "--seed", "0", "--tiny", "--trace"],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
