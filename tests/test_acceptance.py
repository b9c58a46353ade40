"""Acceptance gate: one test per criterion, printed pass lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; every tolerance below is fixed, nothing is calibrated at
runtime.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.linalg as la

from obsblock.config import DesignOptions
from obsblock.cutset import design_via_cutset, lg_condition
from obsblock.designer import design_blocking, required_actuators
from obsblock.errors import LgConditionError, NotAnEigenvalueError
from obsblock.graph import min_vertex_cut
from obsblock.model import IntegratorNetwork, assemble, closed_loop
from obsblock.scenarios import (cut_friendly_network, fig2_din,
                                generic_network, random_network)
from obsblock.spectrum import check_stacked_structure, decompose
from obsblock.verify import observability_rank, output_energy, pbh_test

from test_cutset import grounded_companion_eigs


def _din_instance(seed: int):
    """Criterion-2 instance family: alternating damped-undirected (real
    spectra, q = m+1) and directed (complex spectra, q = m+2) draws."""
    m = 1 + seed % 2
    n = 6 + seed % 5
    overdamped = seed % 2 == 0
    net = random_network(n=n, seed=seed, m=m, q=m + 2, overdamped=overdamped,
                         undirected=overdamped, density=0.4)
    sd = decompose(assemble(net)[0])
    need = required_actuators(m, sd.all_real())
    if need < m + 2:
        net = IntegratorNetwork.from_graph(
            net.graph, net.actuation[:need], net.measurement)
    return net, sd.all_real()


def test_criterion_1_stacked_eigenvector_structure():
    start = time.monotonic()
    worst = 0.0
    for i in range(100):
        order = 2 if i % 2 == 0 else 3
        n = 4 + i % 9
        net = random_network(n=n, order=order, seed=1000 + i, m=1, q=3,
                             density=0.35)
        A, _, _ = assemble(net)
        sd = decompose(A)
        dev = check_stacked_structure(sd, n, order)
        worst = max(worst, dev)
        assert dev < 1e-8, f"instance {i}: deviation {dev:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1: PASS stacked structure over 100 networks "
          f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_direct_din_designs():
    start = time.monotonic()
    real_count = 0
    for seed in range(50):
        net, all_real = _din_instance(seed)
        real_count += all_real
        design = design_blocking(net, DesignOptions(seed=seed))
        A, B, C = assemble(net)
        A_cl = closed_loop(A, B, design.F)
        d = 2 * net.n
        assert design.residuals["spectrum_match"] < 1e-6, seed
        assert pbh_test(A_cl, C, design.lambda_p) <= d - 1, seed
        assert np.abs(C @ design.v_hat).max() < 1e-8, seed
        assert np.isrealobj(design.F), seed
        sd = decompose(A)
        scale = max(1.0, sd.matrix_norm)
        for i in design.preserved:
            v = sd.modal_matrix[:, i]
            lam = sd.eigenvalues[i]
            assert np.linalg.norm(A_cl @ v - lam * v) / scale < 1e-6, seed
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2: PASS 50 direct designs "
          f"({real_count} all-real spectra used q=m+1, {elapsed:.1f}s)")


def test_criterion_3_fig2_cutset_reproduction():
    start = time.monotonic()
    for seed in range(10):
        net = fig2_din(seed=seed)
        result = design_via_cutset(net, options=DesignOptions(seed=seed))
        assert result.certificate.plan.vcut == (5,)
        v = result.design.v_hat
        n = net.n
        for r in (5, 6, 7, 8, 9, 11):
            for k in range(2):
                assert abs(v[r - 1 + k * n]) < 1e-8, (seed, r, k)
        assert result.design.residuals["spectrum_match"] < 1e-6, seed
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3: PASS fig2 zero pattern over 10 weight draws "
          f"({elapsed:.1f}s)")


def test_criterion_4_order3_direct_and_cutset():
    start = time.monotonic()
    net = cut_friendly_network(3, 2, order=3, seed=40, m=1, q=3, generic=True)
    assert net.n == 6 and net.m == 1 and net.q == 3
    d = 3 * net.n
    A, B, C = assemble(net)

    direct = design_blocking(net, DesignOptions(seed=40))
    plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
    assert len(plan.vcut) == 1
    via_cut = design_via_cutset(net, plan, DesignOptions(seed=40))

    for design, label in ((direct, "direct"), (via_cut.design, "cutset")):
        A_cl = closed_loop(A, B, design.F)
        assert design.residuals["spectrum_match"] < 1e-6, label
        assert pbh_test(A_cl, C, design.lambda_p) <= d - 1, label
        assert np.abs(C @ design.v_hat).max() < 1e-8, label
        assert np.isrealobj(design.F), label
        sd = decompose(A)
        scale = max(1.0, sd.matrix_norm)
        for i in design.preserved:
            v = sd.modal_matrix[:, i]
            lam = sd.eigenvalues[i]
            assert np.linalg.norm(A_cl @ v - lam * v) / scale < 1e-6, label
        # order-3 index arithmetic of the replacement eigenvector
        vh, lam = design.v_hat, design.lambda_p
        for k in range(1, 3):
            assert np.abs(vh[k * net.n:(k + 1) * net.n]
                          - lam ** k * vh[:net.n]).max() < 1e-8, label
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4: PASS order-3 direct and cutset designs "
          f"({elapsed:.1f}s)")


def test_criterion_5_lg_condition_screen():
    # constructed counterexample: lambda whose square is an L_g eigenvalue
    net = fig2_din(seed=50)
    plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
    bad = grounded_companion_eigs(net, plan)[0]
    cond = lg_condition(net, plan, bad)
    assert not cond.satisfied
    # it is no open-loop eigenvalue, so the pipeline refuses it as such
    with pytest.raises(NotAnEigenvalueError):
        design_via_cutset(net, plan, DesignOptions(
            seed=50, lambda_selection=("value", bad)))
    # an open-loop eigenvalue that fails the screen is rejected by it
    net = cut_friendly_network(4, 4, seed=5)
    plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
    lam = decompose(assemble(net)[0]).eigenvalues[13]
    assert not lg_condition(net, plan, lam).satisfied
    with pytest.raises(LgConditionError, match="eligible alternatives"):
        design_via_cutset(net, plan, DesignOptions(
            lambda_selection=("index", 13)))

    # lambda = 0 always eligible on strongly connected positive weights:
    # grounded far-partition spectra sit in the open right half plane
    for seed in range(50):
        net = random_network(n=5 + seed % 6, seed=seed, m=1 + seed % 2, q=3,
                             density=0.4)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        cond = lg_condition(net, plan, 0.0)
        assert cond.satisfied, seed
        if plan.v2:
            idx = [v - 1 for v in plan.v2]
            grounded = net.laplacians[0][np.ix_(idx, idx)]
            assert la.eigvals(grounded).real.min() > 0, seed
    print("\nACCEPTANCE 5: PASS L_g screen (counterexample rejected, "
          "lambda=0 eligible on 50 instances)")


def test_criterion_6_oracle_agreement():
    checked = 0
    for seed in range(10):
        net = generic_network(n=5 + seed % 5, seed=seed, m=1, q=3)
        A, B, C = assemble(net)
        sd = decompose(A)
        if np.unique(sd.cluster).size < sd.dim:
            continue
        d = 2 * net.n

        def pbh_verdict(M):
            return any(pbh_test(M, C, lam) < d for lam in la.eigvals(M))

        assert pbh_verdict(A) == (observability_rank(A, C) < d), seed
        design = design_blocking(net, DesignOptions(seed=seed))
        A_cl = closed_loop(A, B, design.F)
        assert pbh_verdict(A_cl) == (observability_rank(A_cl, C) < d) == True, seed
        checked += 1
    assert checked >= 8
    print(f"\nACCEPTANCE 6: PASS PBH and dark-mode-count verdicts agree "
          f"on {checked} instances with isolated disks (open and closed loop)")


def test_criterion_7_output_energy_witness():
    rng = np.random.default_rng(7)
    blocked_worst = 0.0
    visible = 0
    total = 0
    designs = []
    for seed in range(8):
        net, _ = _din_instance(seed)
        designs.append((net, design_blocking(net, DesignOptions(seed=seed))))
    for seed in range(4):
        net = fig2_din(seed=seed)
        designs.append(
            (net, design_via_cutset(net, options=DesignOptions(seed=seed)).design))
    for net, design in designs:
        A, B, _ = assemble(net)
        C = net.output_matrix(design.measured_nodes)
        A_cl = closed_loop(A, B, design.F)
        span = [np.real(design.v_hat)]
        if np.abs(np.imag(design.v_hat)).max() > 1e-12:
            span.append(np.imag(design.v_hat))
        coeffs = rng.standard_normal(len(span))
        x0 = sum(c * s for c, s in zip(coeffs, span))
        x0 /= np.linalg.norm(x0)
        energy, used = output_energy(A_cl, C, x0)
        assert energy < 1e-10 * used, energy
        blocked_worst = max(blocked_worst, energy)
        xr = rng.standard_normal(A.shape[0])
        xr /= np.linalg.norm(xr)
        er, _ = output_energy(A_cl, C, xr)
        total += 1
        visible += er > 1e-6
    assert visible / total >= 0.95
    print(f"\nACCEPTANCE 7: PASS energy witness on {total} designs "
          f"(worst blocked {blocked_worst:.2e}, visible {visible}/{total})")


def test_criterion_8_deterministic_reports(tmp_path):
    from obsblock.cli import main

    pairs = []
    for tag in ("x", "y"):
        net_file = tmp_path / f"net_{tag}.json"
        design_file = tmp_path / f"design_{tag}.json"
        repro_file = tmp_path / f"repro_{tag}.txt"
        verify_file = tmp_path / f"verify_{tag}.json"
        assert main(["gen", "--n", "9", "--m", "2", "--q", "4", "--seed", "11",
                     "--density", "0.4", "--output", str(net_file)]) == 0
        assert main(["design", "--input", str(net_file), "--seed", "11",
                     "--output", str(design_file)]) == 0
        assert main(["verify", "--input", str(design_file), "--seed", "11",
                     "--output", str(verify_file)]) == 0
        assert main(["repro", "fig2-din", "--seed", "11",
                     "--output", str(repro_file)]) == 0
        pairs.append((net_file.read_bytes(), design_file.read_bytes(),
                      verify_file.read_bytes(), repro_file.read_bytes()))
    assert pairs[0] == pairs[1]
    print("\nACCEPTANCE 8: PASS byte-identical reports across two seeded runs")
