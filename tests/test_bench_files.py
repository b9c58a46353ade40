"""The checked-in benchmark results are complete and passing.

Reads the `BENCH_*.json` files at the repository root (the JSON that
`python3 bench/run.py --workload all --trace 1` prints last) against
the metric names that `BENCHMARK.json` declares; runs nothing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = sorted(ROOT.glob("BENCH_*.json"))


def test_results_are_checked_in():
    assert RESULTS


@pytest.mark.parametrize("path", RESULTS, ids=lambda p: p.name)
def test_result_is_correct_and_complete(path):
    result = json.loads(path.read_text())
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = [f"{w['name']}.{m['name']}" for w in DECLARED["workloads"]
               for m in DECLARED["per_layer"]
               if f"{w['name']}.{m['name']}" not in result["metrics"]]
    assert missing == []
