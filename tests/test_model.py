from __future__ import annotations

import copy
import json

import numpy as np
import pytest
import scipy.linalg as la

from obsblock import model
from obsblock.config import DesignOptions
from obsblock.cutset import design_via_cutset
from obsblock.designer import nullspace_bundle
from obsblock.errors import (InvalidInputError, ModelAssemblyError, NetworkFileError,
                             OrderMismatchError)
from obsblock.graph import WeightedDigraph, laplacian_stack, min_vertex_cut
from obsblock.model import (FeedbackGain, IntegratorNetwork, assemble, closed_loop,
                            cutset_output, load_network, network_from_dict,
                            network_to_dict, save_network)
from obsblock.scenarios import fig2_din, generic_network, random_network
from obsblock.spectrum import decompose

from conftest import random_digraph


class TestAssemble:
    def test_single_free_node(self):
        net = IntegratorNetwork(order=2, graph=WeightedDigraph(n=1),
                                actuation=(1,), measurement=())
        A, B, C = assemble(net)
        assert np.array_equal(A, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(B, [[0.0], [1.0]])
        assert C.shape == (0, 2)

    def test_top_block_row_is_selector(self, rng):
        net = random_network(n=6, seed=5, m=1, q=3)
        A, _, _ = assemble(net)
        n = net.n
        assert np.array_equal(A[:n, :n], np.zeros((n, n)))
        assert np.array_equal(A[:n, n:], np.eye(n))

    def test_order3_bottom_row_carries_all_couplings(self, rng):
        g = random_digraph(2, rng, density=1.0, order=3)
        net = IntegratorNetwork.from_graph(g, (1,), (2,))
        A, _, _ = assemble(net)
        n = 2
        for k, L in enumerate(net.laplacians):
            assert np.array_equal(A[2 * n:, k * n:(k + 1) * n], -L)
        # super-diagonal identities of the companion stack
        assert np.array_equal(A[:n, n:2 * n], np.eye(n))
        assert np.array_equal(A[n:2 * n, 2 * n:], np.eye(n))
        assert np.array_equal(A[:n, 2 * n:], np.zeros((n, n)))

    def test_input_rank_equals_actuator_count(self):
        net = random_network(n=7, seed=2, m=2, q=4)
        _, B, _ = assemble(net)
        assert np.linalg.matrix_rank(B) == 4

    def test_permutation_covariance(self, rng):
        net = random_network(n=6, seed=9, m=2, q=3)
        perm = [int(x) for x in rng.permutation(np.arange(1, 7))]
        relabel = {old: new for new, old in enumerate(perm, start=1)}
        g2 = WeightedDigraph(n=6, edges=tuple(
            (relabel[u], relabel[v], w) for (u, v, w) in net.graph.edges))
        net2 = IntegratorNetwork.from_graph(
            g2, tuple(relabel[a] for a in net.actuation),
            tuple(relabel[b] for b in net.measurement))
        A1, _, _ = assemble(net)
        A2, _, _ = assemble(net2)
        P = np.zeros((6, 6))
        for old, new in relabel.items():
            P[new - 1, old - 1] = 1.0
        Pb = np.kron(np.eye(2), P)
        assert np.allclose(Pb @ A1 @ Pb.T, A2)

    def test_actuation_overlap_rejected(self):
        g = WeightedDigraph(n=3, edges=((1, 2, (1.0, 1.0)), (2, 1, (1.0, 1.0)),
                                        (2, 3, (1.0, 1.0)), (3, 2, (1.0, 1.0))))
        with pytest.raises(InvalidInputError):
            IntegratorNetwork.from_graph(g, (1, 2), (2,))

    @pytest.mark.parametrize("changes, kind, message", [
        ({"order": 1}, InvalidInputError, "network order must be >= 2, got 1"),
        ({"actuation": (4,)}, InvalidInputError, "node 4 outside 1..3"),
        ({"measurement": (0,)}, InvalidInputError, "node 0 outside 1..3"),
        ({"actuation": (1, 1)}, InvalidInputError,
         "repeated node in actuation or measurement set"),
        ({"measurement": (1,)}, InvalidInputError,
         "actuation and measurement sets overlap"),
        ({"laplacians": (np.eye(2), np.eye(2))}, ModelAssemblyError,
         "coupling matrix 0 has shape (2, 2), expected (3, 3)")],
        ids=["order-1", "actuation-outside", "measurement-outside", "repeated",
             "overlap", "coupling-shape"])
    def test_invalid_network_rejected_by_name(self, changes, kind, message):
        g = WeightedDigraph(n=3, edges=((1, 2, (1.0, 1.0)), (2, 3, (1.0, 1.0))))
        fields = dict(dict(order=2, graph=g, actuation=(1,), measurement=(3,)),
                      **changes)
        with pytest.raises(kind) as got:
            IntegratorNetwork(**fields)
        assert str(got.value) == message

    def test_explicit_matrices_must_respect_sparsity(self):
        g = WeightedDigraph(n=3, edges=((1, 2, (1.0,)), (2, 1, (1.0,))))
        bad = np.ones((3, 3))
        with pytest.raises(ModelAssemblyError):
            IntegratorNetwork(order=2, graph=g, actuation=(1,), measurement=(3,),
                              laplacians=(bad, bad))

    def test_sparsity_error_names_the_first_stray_entry(self):
        # matrix 0 respects the edges; matrix 1 couples 3->1 and 1->3, and
        # the row-major first stray entry (row 0, column 2) is reported
        g = WeightedDigraph(n=3, edges=((1, 2, (1.0, 1.0)), (2, 1, (1.0, 1.0)),
                                        (2, 3, (1.0, 1.0))))
        good = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
        bad = good.copy()
        bad[0, 2] = bad[2, 0] = -0.5
        with pytest.raises(ModelAssemblyError,
                           match=r"^matrix 1 couples nodes 3->1 without an edge$"):
            IntegratorNetwork(order=2, graph=g, actuation=(1,), measurement=(3,),
                              laplacians=(good, bad))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("entry", [(1, 0), (2, 2), (0, 2)],
                             ids=["edge", "diagonal", "no-edge"])
    def test_non_finite_coupling_is_rejected_by_name(self, value, entry):
        # json reads Infinity and NaN; an entry where no edge runs is
        # named as non-finite too, not as a stray coupling
        g = WeightedDigraph(n=3, edges=((1, 2, (1.0, 1.0)), (2, 1, (1.0, 1.0)),
                                        (2, 3, (1.0, 1.0))))
        good = laplacian_stack(g, 2)[0]
        bad = good.copy()
        bad[entry] = value
        i, j = entry
        with pytest.raises(ModelAssemblyError) as info:
            IntegratorNetwork(order=2, graph=g, actuation=(1,), measurement=(3,),
                              laplacians=(good, bad))
        assert str(info.value) == \
            f"coupling matrix 1 entry ({i + 1},{j + 1}) is {value}, not finite"
        assert info.value.exit_code == 2

    def test_explicit_matrices_need_the_graph_order(self):
        # three matrices over edges carrying two weights cannot be written
        # back, since the record holds one weight row per order
        g = WeightedDigraph(n=3, edges=((1, 2, (1.0, 2.0)), (2, 1, (1.0, 2.0)),
                                        (2, 3, (1.0, 2.0)), (3, 2, (1.0, 2.0))))
        mats = (laplacian_stack(g, 2)[0],) * 3
        with pytest.raises(OrderMismatchError,
                           match=r"^graph carries 2 weights per edge, need 3$") as info:
            IntegratorNetwork(order=3, graph=g, actuation=(1,), measurement=(3,),
                              laplacians=mats)
        assert info.value.exit_code == 2
        edgeless = IntegratorNetwork(order=3, graph=WeightedDigraph(n=2),
                                     actuation=(1,), measurement=(2,),
                                     laplacians=(np.zeros((2, 2)),) * 3)
        assert network_from_dict(network_to_dict(edgeless)).order == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_sparsity_error_matches_the_per_entry_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        g = random_digraph(n, rng, density=0.3)
        mats = [L.copy() for L in
                IntegratorNetwork.from_graph(g, (1,), (n,)).laplacians]
        k = int(rng.integers(0, 2))
        mats[k][rng.random((n, n)) < 0.3] = 2.0
        allowed = {(v - 1, u - 1) for (u, v, _) in g.edges}
        stray = [(i, j) for i, j in np.argwhere(mats[k] != 0.0)
                 if i != j and (int(i), int(j)) not in allowed]
        if not stray:
            IntegratorNetwork(order=2, graph=g, actuation=(1,), measurement=(n,),
                              laplacians=tuple(mats))
            return
        i, j = stray[0]
        with pytest.raises(ModelAssemblyError) as info:
            IntegratorNetwork(order=2, graph=g, actuation=(1,), measurement=(n,),
                              laplacians=tuple(mats))
        assert str(info.value) == \
            f"matrix {k} couples nodes {j + 1}->{i + 1} without an edge"


class TestStateIndex:
    @staticmethod
    def selector(n, nodes):
        S = np.zeros((len(nodes), n))
        for j, r in enumerate(nodes):
            S[j, r - 1] = 1.0
        return S

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("nodes", [None, (), (3,), (5, 1, 4)])
    def test_matches_the_layout_formula_and_the_kron_selector(self, order, nodes):
        rng = np.random.default_rng(order)
        net = IntegratorNetwork.from_graph(
            random_digraph(6, rng, order=order), (1, 2), (6, 3), order=order)
        chosen = net.measurement if nodes is None else nodes
        idx = net.state_index(nodes)
        assert idx.shape == (order, len(chosen))
        assert idx.dtype.kind == "i"
        for k in range(order):
            for j, r in enumerate(chosen):
                assert idx[k, j] == (r - 1) + k * net.n
        C = net.output_matrix(nodes)
        assert C.shape == (order * len(chosen), net.state_dim)
        assert np.array_equal(C, np.kron(np.eye(order), self.selector(net.n, chosen)))


class TestCutsetOutput:
    def test_fig2_selects_node5_rows(self):
        net = fig2_din(seed=0)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        Ct = cutset_output(net, plan)
        assert Ct.shape == (2, 22)
        expected = np.zeros((2, 22))
        expected[0, 4] = 1.0
        expected[1, 15] = 1.0
        assert np.array_equal(Ct, expected)

    def test_cut_equal_to_measurement_matches_base_rowspace(self):
        net = random_network(n=5, seed=3, m=2, q=2)
        from obsblock.graph import CutsetPlan
        meas = net.measurement
        rest = tuple(v for v in range(1, 6) if v not in meas)
        plan = CutsetPlan(v1=rest, vcut=meas, v2=())
        Ct = cutset_output(net, plan)
        _, _, C = assemble(net)
        # same row space: mutual projections are exact
        assert np.linalg.matrix_rank(np.vstack([Ct, C])) == C.shape[0]

    def test_selector_rows_orthonormal(self, rng):
        net = random_network(n=8, seed=4, m=2, q=3)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        Ct = cutset_output(net, plan)
        k = Ct.shape[0]
        assert np.array_equal(Ct @ Ct.T, np.eye(k))


class TestClosedLoop:
    def test_zero_gain_is_identity_bitexact(self):
        net = random_network(n=6, seed=7, m=1, q=3)
        A, B, _ = assemble(net)
        F = np.zeros((3, 12))
        assert np.array_equal(closed_loop(A, B, F), A)

    def test_only_bottom_rows_move(self, rng):
        net = random_network(n=5, seed=11, m=1, q=2)
        A, B, _ = assemble(net)
        F = rng.standard_normal((2, 10))
        A_cl = closed_loop(A, B, F)
        assert np.array_equal(A_cl[:5], A[:5])

    def test_dimension_mismatch(self):
        with pytest.raises(ModelAssemblyError):
            closed_loop(np.eye(4), np.zeros((4, 2)), np.zeros((3, 4)))

    def test_fig2_gains_preserve_spectrum(self):
        # independent recomputation of both spectra around the design
        net = fig2_din(seed=2)
        design = design_via_cutset(net, options=DesignOptions(seed=2))
        A, B, _ = assemble(net)
        A_cl = closed_loop(A, B, design.design.F)
        key = lambda z: (z.real, z.imag)
        lam_o = sorted(la.eigvals(A), key=key)
        lam_c = sorted(la.eigvals(A_cl), key=key)
        assert max(abs(a - b) for a, b in zip(lam_o, lam_c)) < 1e-6


class TestFeedbackGain:
    def test_complex_matrix_is_rejected_not_truncated(self):
        # a list and an array: numpy raises on the one and silently drops
        # the imaginary part of the other when asked for a float array
        for matrix in ([[1 + 1e-3j, 2.0]], np.array([[1 + 1e-3j, 2.0]])):
            with pytest.raises(ModelAssemblyError, match="imaginary"):
                FeedbackGain(matrix=matrix)
        gain = FeedbackGain(matrix=np.array([[1 + 0j, 2.0]]))
        assert gain.matrix.dtype == float
        assert gain.matrix.tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_matrix_is_rejected(self, value):
        with pytest.raises(ModelAssemblyError) as got:
            FeedbackGain(matrix=np.array([[1.0, value]]))
        assert str(got.value) == "gain matrix contains non-finite entries"


def test_array_holding_records_compare_by_identity():
    # a field-by-field == would ask numpy for the truth value of an array
    net = fig2_din(seed=0)
    result = design_via_cutset(net, options=DesignOptions())
    design, certificate = result.design, result.certificate
    objects = (net, design.gain, design, result, certificate, certificate.condition,
               decompose(assemble(net)[0]),
               nullspace_bundle(net, design.lambda_p, certificate.plan.vcut))
    for a in objects:
        equal = a == copy.deepcopy(a)
        assert equal is False, type(a).__name__
        assert a == a
        assert len({a, a}) == 1


class TestNetworkFile:
    def test_roundtrip(self, tmp_path):
        net = random_network(n=6, seed=1, m=2, q=3)
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        assert back.order == net.order
        assert back.graph.edges == net.graph.edges
        assert back.actuation == net.actuation
        assert back.measurement == net.measurement
        assert "couplings" not in network_to_dict(net)

    def test_generic_couplings_roundtrip(self, tmp_path):
        net = generic_network(n=7, seed=3, m=1, q=3)
        data = network_to_dict(net)
        assert len(data["couplings"]) == net.order
        path = tmp_path / "net.json"
        save_network(net, path)
        for back in (network_from_dict(data), load_network(path)):
            assert back.graph.edges == net.graph.edges
            assert all(np.array_equal(a, b)
                       for a, b in zip(back.laplacians, net.laplacians))
            assert not back.is_laplacian_form()

    def test_couplings_compared_only_when_given(self, monkeypatch):
        # a network built from its graph holds the Laplacian form, so
        # writing it builds no stack; given couplings are still compared
        laplacian_form = random_network(n=6, seed=1, m=2, q=3)
        generic = generic_network(n=7, seed=3, m=1, q=3)
        given = IntegratorNetwork(order=2, graph=laplacian_form.graph,
                                  actuation=laplacian_form.actuation,
                                  measurement=laplacian_form.measurement,
                                  laplacians=laplacian_form.laplacians)
        before = [network_to_dict(net) for net in (laplacian_form, given, generic)]
        stack = model.laplacian_stack
        calls = []

        def counted(*args):
            calls.append(args)
            return stack(*args)

        monkeypatch.setattr(model, "laplacian_stack", counted)
        assert network_to_dict(laplacian_form) == before[0]
        assert calls == []
        assert network_to_dict(given) == before[1] == before[0]
        assert len(calls) == 1
        assert network_to_dict(generic) == before[2]
        assert "couplings" in before[2] and len(calls) == 2

    def test_malformed_couplings(self):
        data = network_to_dict(generic_network(n=5, seed=0, m=1, q=2))
        data["couplings"] = [[[1.0, 2.0], [3.0]]] * 2
        with pytest.raises(NetworkFileError):
            network_from_dict(data)
        data["couplings"] = [np.ones((5, 5)).tolist()] * 2
        with pytest.raises(ModelAssemblyError):
            network_from_dict(data)

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_coupling_literal_is_rejected(self, literal):
        net = generic_network(n=5, seed=0, m=1, q=2)
        columnar = network_to_dict(net)
        columnar["couplings"]["edges"][1][0] = float(literal)
        dense = dict(columnar, couplings=[L.tolist() for L in net.laplacians])
        dense["couplings"][0][4][4] = float(literal)
        g = net.graph
        on_edge = (int(g.heads[0]) + 1, int(g.tails[0]) + 1)
        for data, (k, (i, j)) in ((columnar, (1, on_edge)), (dense, (0, (5, 5)))):
            text = json.dumps(data)
            assert literal in text
            with pytest.raises(ModelAssemblyError,
                               match=rf"^coupling matrix {k} entry \({i},{j}\) is "
                                     rf"-?(inf|nan), not finite$"):
                network_from_dict(json.loads(text))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"order": 2, "n": 3}')
        with pytest.raises(NetworkFileError):
            load_network(path)

    def test_wrong_weight_count(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"order": 2, "n": 2, "edges": [{"from": 1, "to": 2, "weights": [1.0]}],'
            ' "actuation": [1], "measurement": [2]}')
        with pytest.raises(NetworkFileError):
            load_network(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(NetworkFileError):
            load_network(path)
