from __future__ import annotations

import re

import numpy as np
import pytest
import scipy.linalg as la

from obsblock import cutset
from obsblock.cli import main
from obsblock.config import DEFAULT_TOLERANCES, DesignOptions
from obsblock.cutset import design_via_cutset, lg_condition
from obsblock.errors import (IllConditionedDesignError,
                             InsufficientActuationError, InvalidInputError,
                             LgConditionError,
                             NoEligibleEigenvalueError, NotAnEigenvalueError,
                             RepairFailureError)
from obsblock.graph import CutsetPlan, WeightedDigraph, min_vertex_cut
from obsblock.model import (IntegratorNetwork, assemble, closed_loop,
                            save_network)
from obsblock.scenarios import (FIG2_ACTUATION, FIG2_MEASUREMENT,
                                cut_friendly_network, fig2_din, random_network)
from obsblock.spectrum import decompose, multiset_error
from obsblock.verify import pbh_test, verify_design


def grounded_companion_eigs(network, plan):
    """Quadratic-pencil eigenvalues of the far partition: exactly the
    lambda values whose square hits an L_g eigenvalue (N = 2)."""
    idx = [v - 1 for v in plan.v2]
    L0 = network.laplacians[0][np.ix_(idx, idx)]
    L1 = network.laplacians[1][np.ix_(idx, idx)]
    k = len(idx)
    Ag = np.zeros((2 * k, 2 * k))
    Ag[:k, k:] = np.eye(k)
    Ag[k:, :k] = -L0
    Ag[k:, k:] = -L1
    return la.eigvals(Ag)


class TestLgCondition:
    def test_empty_far_partition_trivially_satisfied(self):
        net = random_network(n=5, seed=0, m=2, q=2)
        plan = CutsetPlan(v1=(1, 2, 3), vcut=(4, 5), v2=())
        cond = lg_condition(net, plan, 0.7)
        assert cond.satisfied
        assert np.isinf(cond.margin)

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_always_eligible_on_laplacian_networks(self, seed):
        net = random_network(n=9, seed=seed, m=2, q=3)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        cond = lg_condition(net, plan, 0.0)
        assert cond.satisfied
        if plan.v2:
            # grounded-Laplacian property: the far principal submatrix
            # has spectrum in the open right half plane
            idx = [v - 1 for v in plan.v2]
            eig = la.eigvals(net.laplacians[0][np.ix_(idx, idx)])
            assert eig.real.min() > 0

    def test_crafted_lambda_fails(self):
        net = fig2_din(seed=4)
        plan = min_vertex_cut(net.graph, FIG2_ACTUATION, FIG2_MEASUREMENT)
        for lam in grounded_companion_eigs(net, plan)[:4]:
            cond = lg_condition(net, plan, lam)
            assert not cond.satisfied
            # the construction makes lambda^2 an exact L_g eigenvalue
            assert cond.margin < 1e-8 * (1 + np.abs(cond.lg_eigenvalues).max())

    def test_exact_n2_formula(self):
        net = fig2_din(seed=3)
        plan = min_vertex_cut(net.graph, FIG2_ACTUATION, FIG2_MEASUREMENT)
        lam = -0.8
        cond = lg_condition(net, plan, lam)
        idx = [v - 1 for v in plan.v2]
        assert idx
        expected = la.eigvals(-(net.laplacians[0][np.ix_(idx, idx)]
                                + lam * net.laplacians[1][np.ix_(idx, idx)]))
        assert multiset_error(cond.lg_eigenvalues, expected) < 1e-12
        assert cond.margin == pytest.approx(np.abs(lam ** 2 - expected).min(),
                                            rel=1e-12)


class TestDesignViaCutset:
    def test_fig2_zero_pattern(self):
        net = fig2_din(seed=0)
        result = design_via_cutset(net, options=DesignOptions(seed=0))
        plan = result.certificate.plan
        assert plan.vcut == (5,)
        v = result.design.v_hat
        n = net.n
        for r in (5, 6, 7, 8, 9, 11):
            for k in range(2):
                assert abs(v[r - 1 + k * n]) < 1e-8
        _, _, C = assemble(net)
        assert np.abs(C @ v).max() < 1e-8
        assert result.design.residuals["spectrum_match"] < 1e-6

    def test_supplied_plan_needs_a_strongly_connected_laplacian_graph(self):
        # a one-way path 1 -> 2 -> 3: the plan is a valid separator, but
        # the Laplacian-form transfer argument needs strong connectivity
        g = WeightedDigraph(n=3, edges=((1, 2, (1.0, 1.0)), (2, 3, (1.0, 1.0))))
        net = IntegratorNetwork.from_graph(g, (1,), (3,))
        plan = CutsetPlan(v1=(1,), vcut=(2,), v2=(3,))
        plan.validate(net.graph, net.actuation, net.measurement)
        with pytest.raises(InvalidInputError) as got:
            design_via_cutset(net, plan)
        assert str(got.value) == "cutset design requires a strongly connected graph"

    def test_fig2_base_model_pbh_deficient(self):
        net = fig2_din(seed=3)
        result = design_via_cutset(net, options=DesignOptions(seed=3))
        A, B, C = assemble(net)
        A_cl = closed_loop(A, B, result.design.F)
        assert pbh_test(A_cl, C, result.design.lambda_p) <= 2 * net.n - 1

    def test_crafted_value_is_refused_before_the_screen(self, monkeypatch):
        # the crafted value fails L_g but is no open-loop eigenvalue: the
        # request is refused as such, and the screen never runs on it
        net = fig2_din(seed=5)
        plan = min_vertex_cut(net.graph, FIG2_ACTUATION, FIG2_MEASUREMENT)
        lam = grounded_companion_eigs(net, plan)[0]
        assert not lg_condition(net, plan, lam).satisfied
        screened = []
        monkeypatch.setattr(cutset, "lg_condition",
                            lambda *args: screened.append(args) or lg_condition(*args))
        with pytest.raises(NotAnEigenvalueError,
                           match="is not an open-loop eigenvalue") as err:
            design_via_cutset(net, plan,
                              DesignOptions(seed=5,
                                            lambda_selection=("value", lam)))
        assert err.value.exit_code == 2 and screened == []

    @pytest.mark.parametrize("sel", [("value",), ("index",), ("index", 2.7)])
    def test_malformed_request_is_invalid_input(self, sel):
        net = cut_friendly_network(4, 4, seed=5)
        with pytest.raises(InvalidInputError, match="^bad lambda selection"):
            design_via_cutset(net, options=DesignOptions(lambda_selection=sel))

    def test_index_override_rejected_with_alternatives(self):
        # lambda index 13 is an open-loop eigenvalue, unlike the crafted
        # values, and fails L_g by a small margin; every alternative is a
        # usable candidate that passes L_g, listed as an index request
        net = cut_friendly_network(4, 4, seed=5)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        with pytest.raises(LgConditionError) as err:
            design_via_cutset(net, plan,
                              DesignOptions(lambda_selection=("index", 13)))
        assert err.value.exit_code == 2
        head, alts = str(err.value).split("; eligible alternatives: ")
        assert head == ("lambda = -0.126554+0j fails the L_g condition "
                        "(margin 2.379e-07 <= 2.567e-06)")
        listed = [re.fullmatch(r"index:(\d+) \((.+)\)", a).groups()
                  for a in alts.split(", ")]
        assert len(listed) == 15 and "13" not in [k for k, _ in listed]
        A, _, C = assemble(net)
        sd = decompose(A)
        # a value request resolves to the same column and fails alike
        with pytest.raises(LgConditionError) as by_value:
            design_via_cutset(net, plan, DesignOptions(
                lambda_selection=("value", sd.eigenvalues[13])))
        assert str(by_value.value) == str(err.value)
        zero_screen = DEFAULT_TOLERANCES.lambda_match * max(1.0, sd.matrix_norm)
        for k, value in listed:
            lam = sd.eigenvalues[int(k)]
            assert value == f"{lam:.6g}" and abs(lam) > zero_screen
            result = design_via_cutset(
                net, plan, DesignOptions(lambda_selection=("index", int(k))))
            assert result.design.lambda_index == int(k)
            assert verify_design(result.design, C=C,
                                 rng=np.random.default_rng(0)).verdict

    def test_no_candidate_passes_lg(self, monkeypatch, capsys):
        def unsatisfied(network, plan, lam):
            cond = lg_condition(network, plan, lam)
            cond.margin = cond.tolerance
            return cond

        monkeypatch.setattr(cutset, "lg_condition", unsatisfied)
        with pytest.raises(NoEligibleEigenvalueError,
                           match="^no usable eigenvalue satisfies the L_g "
                                 "condition$"):
            design_via_cutset(fig2_din(seed=0), options=DesignOptions())
        assert main(["repro", "fig2-din"]) == 2
        assert capsys.readouterr().err == (
            "error: no usable eigenvalue satisfies the L_g condition\n")

    @pytest.mark.parametrize("make", [
        lambda: fig2_din(seed=0), lambda: cut_friendly_network(4, 4, seed=9)],
        ids=["fig2-din", "bridged"])
    def test_cut_zero_pattern_is_the_designer_residual(self, make):
        net = make()
        result = design_via_cutset(net, options=DesignOptions())
        v = result.design.v_hat
        cut = v[net.state_index(result.certificate.plan.vcut).ravel()]
        assert result.design.residuals["zero_pattern"] == max(abs(x) for x in cut)

    def test_index_out_of_range_is_not_an_eigenvalue(self):
        net = cut_friendly_network(4, 4, seed=5)
        with pytest.raises(NotAnEigenvalueError,
                           match=r"^eigenvalue index 99 outside 0\.\.17$") as err:
            design_via_cutset(net, options=DesignOptions(lambda_selection=("index", 99)))
        assert err.value.exit_code == 2

    def test_cli_index_override_rejected(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        save_network(cut_friendly_network(4, 4, seed=5), path)
        assert main(["design", "--input", str(path), "--cutset",
                     "--lambda", "index:13"]) == 2
        assert "eligible alternatives" in capsys.readouterr().err

    @pytest.mark.parametrize("make, walked", [
        (lambda: fig2_din(seed=0), 1),
        (lambda: cut_friendly_network(4, 4, seed=9), 2)], ids=["fig2-din", "bridged"])
    def test_lg_condition_runs_once_per_walked_candidate(self, make, walked,
                                                          monkeypatch):
        net = make()
        calls = []

        def spy(network, plan, lam):
            calls.append((complex(lam), lg_condition(network, plan, lam)))
            return calls[-1][1]

        monkeypatch.setattr(cutset, "lg_condition", spy)
        result = design_via_cutset(net, options=DesignOptions(seed=0))
        # the walk stops at the first eligible candidate, and the
        # certificate carries its condition
        assert [cond.satisfied for _, cond in calls] == [False] * (walked - 1) + [True]
        assert len({lam for lam, _ in calls}) == walked
        assert calls[-1][0] == result.design.lambda_p
        assert result.certificate.condition is calls[-1][1]

    def test_q_below_cut_requirement(self):
        # 2-node cut with q = 2 actuators cannot satisfy |Vcut| + 1
        net = cut_friendly_network(4, 4, seed=2, m=2, q=2, cut_size=2)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        assert len(plan.vcut) == 2
        with pytest.raises(InsufficientActuationError):
            design_via_cutset(net, plan, DesignOptions(seed=2))

    def test_two_node_cut_design(self):
        net = cut_friendly_network(5, 5, seed=7, m=2, q=4, cut_size=2)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        assert len(plan.vcut) == 2
        result = design_via_cutset(net, plan, DesignOptions(seed=7))
        blocked = set(plan.vcut) | set(plan.v2)
        v = result.design.v_hat
        for r in blocked:
            for k in range(2):
                assert abs(v[r - 1 + k * net.n]) < 1e-8
        A, B, C = assemble(net)
        assert pbh_test(closed_loop(A, B, result.design.F), C,
                        result.design.lambda_p) <= 2 * net.n - 1

    def test_order3_cutset_generic(self):
        net = cut_friendly_network(4, 3, order=3, seed=9, m=1, q=3, generic=True)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        assert len(plan.vcut) == 1
        result = design_via_cutset(net, plan, DesignOptions(seed=9))
        v = result.design.v_hat
        for r in set(plan.vcut) | set(plan.v2):
            for k in range(3):
                assert abs(v[r - 1 + k * net.n]) < 1e-8
        assert result.design.residuals["spectrum_match"] < 1e-6

    def test_eq_10_12_consistency(self):
        # far-partition blocks of the produced eigenvector satisfy the
        # derivative relation and the grounded quadratic identity
        net = fig2_din(seed=6)
        result = design_via_cutset(net, options=DesignOptions(seed=6))
        plan = result.certificate.plan
        lam = result.design.lambda_p
        n = net.n
        idx = [v - 1 for v in plan.v2]
        vs2 = result.design.v_hat[idx]
        vd2 = result.design.v_hat[[i + n for i in idx]]
        assert np.abs(vd2 - lam * vs2).max() < 1e-10
        Lg = result.certificate.condition
        assert np.abs(vs2).max() < 1e-8   # forced to zero by the condition

    def test_explicit_zero_lambda_on_balanced_graph_fails_structurally(self):
        # undirected graphs are weight balanced: every lambda = 0 candidate
        # lies in the span of the open-loop eigenvectors, so either the
        # repair stalls or the blown-up gain trips the postcondition gate
        net = fig2_din(seed=1)
        with pytest.raises((RepairFailureError, IllConditionedDesignError)):
            design_via_cutset(net, options=DesignOptions(
                seed=1, lambda_selection=("value", 0.0 + 0j)))

    def test_permutation_coherence(self):
        net = fig2_din(seed=8)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        result = design_via_cutset(net, plan, DesignOptions(seed=8))

        relabel = {old: new for new, old in enumerate(plan.permutation, start=1)}
        g2 = WeightedDigraph(n=net.n, edges=tuple(
            sorted((relabel[u], relabel[v], w) for (u, v, w) in net.graph.edges)))
        net2 = IntegratorNetwork.from_graph(
            g2, tuple(sorted(relabel[a] for a in net.actuation)),
            tuple(sorted(relabel[b] for b in net.measurement)))
        plan2 = min_vertex_cut(net2.graph, net2.actuation, net2.measurement)
        result2 = design_via_cutset(net2, plan2, DesignOptions(seed=8))

        # same eigenvalue is targeted and the gains match after carrying
        # the renumbering through states and actuator rows
        assert abs(result.design.lambda_p - result2.design.lambda_p) < 1e-9
        P = np.zeros((net.n, net.n))
        for old, new in relabel.items():
            P[new - 1, old - 1] = 1.0
        Pb = np.kron(np.eye(2), P)
        row = {a: i for i, a in enumerate(net.actuation)}
        row2 = {a: i for i, a in enumerate(net2.actuation)}
        F1 = np.asarray(result.design.F)
        F2 = np.asarray(result2.design.F)
        for a in net.actuation:
            lhs = F2[row2[relabel[a]]]
            rhs = F1[row[a]] @ Pb.T
            assert np.abs(lhs - rhs).max() < 1e-8
