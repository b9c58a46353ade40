"""Tests of the benchmark's own checker, tracer and metric list.

Run from the repository root: `python -m pytest bench -q`.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from obsblock import scenarios  # noqa: E402
from workloads import Instance  # noqa: E402

TOL = pipeline.TOL


def _instances():
    return [
        Instance("fig2_din cutset", scenarios.fig2_din(seed=0), cutset=True),
        Instance("undirected direct",
                 scenarios.random_network(10, 2, density=0.4, seed=0, m=1, q=2,
                                          overdamped=True, undirected=True),
                 cutset=False),
    ]


@pytest.fixture(params=_instances(), ids=lambda inst: inst.ident)
def verified(request):
    inst = request.param
    result = pipeline.run_op(inst)
    assert result.outcome == "verified", result.message
    return inst, result


def test_unperturbed_design_passes_the_checks(verified):
    inst, result = verified
    assert checks.design_problems(inst.network, result.loaded, TOL) == []
    checks.apply_checks(inst, result, TOL)
    assert result.outcome == "verified"


def test_gain_perturbed_in_one_entry_is_check_failed(verified):
    inst, result = verified
    gain = result.loaded.gain
    F = gain.matrix.copy()
    F[0, 0] += 1e-3
    result.loaded.gain = dataclasses.replace(gain, matrix=F)
    checks.apply_checks(inst, result, TOL)
    assert result.outcome == "check_failed"
    assert "spectrum moved" in result.message
    assert "mode is observable" in result.message


def test_each_check_can_fail(verified):
    inst, result = verified
    design = result.loaded

    def problems(**changes):
        fields = {"F": design.F, "v_hat": design.v_hat,
                  "lambda_p": design.lambda_p, **changes}
        return " ".join(checks.design_problems(
            inst.network, SimpleNamespace(**fields), TOL))

    row = inst.network.measurement[0] - 1
    v = design.v_hat.copy()
    v[row] += 1e-6
    assert "measured rows" in problems(v_hat=v)
    assert "eigen-residual" in problems(v_hat=np.roll(design.v_hat, 1))
    bad = design.F.copy()
    bad[0, 0] = np.nan
    assert "finite real" in problems(F=bad)
    assert "finite real" in problems(F=design.F + 1e-3j)


def test_traced_op_matches_untraced_and_spans_cover_the_wall():
    inst = _instances()[0]
    plain = pipeline.run_op(inst)
    tr = tracer.Tracer()
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracer.BINDINGS}
    with tracer.installed(tr):
        with tr.span("bench.glue"):
            traced = pipeline.run_op(inst)
    assert traced.record == plain.record
    assert all(getattr(sys.modules[m], a) is originals[(m, a)]
               for m, a in originals)
    self_s, calls = tr.self_times()
    glue = tr.spans[0]
    assert glue[0] == "bench.glue" and glue[1] == -1
    assert sum(self_s.values()) == pytest.approx(glue[3] - glue[2], rel=1e-9)
    assert calls["graph.min_vertex_cut"] == 1
    assert calls["verify.output_energy"] == 2
    assert 0 < tr.counters["cutset.lg_satisfied"] <= calls["cutset.lg_condition"]


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
