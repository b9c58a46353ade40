from __future__ import annotations

from collections import deque

import numpy as np
import pytest
import scipy.linalg as la

from obsblock.errors import InvalidInputError, OrderMismatchError
from obsblock.graph import (CutsetPlan, WeightedDigraph, _partition_after_removal,
                            is_strongly_connected, laplacian, min_vertex_cut)
from obsblock.scenarios import (FIG2_ACTUATION, FIG2_MEASUREMENT,
                                cut_friendly_network, fig2_din)

from conftest import exhaustive_min_cut, random_digraph, undirected_separates


def poly_det3(L):
    """Characteristic polynomial of a 3x3 matrix by Leibniz expansion.

    Independent oracle: each permutation term is a convolution of
    linear factors (lam - L_ii on the diagonal, constants elsewhere).
    """
    perms = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
             ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]
    total = np.zeros(4)
    for perm, sign in perms:
        term = np.array([1.0])
        for i, j in enumerate(perm):
            factor = np.array([1.0, -L[i, i]]) if i == j else np.array([-L[i, j]])
            term = np.convolve(term, factor)
        total[4 - len(term):] += sign * term
    return total


def reaches_all(g) -> bool:
    """Plain BFS oracle: every node reaches every other along directed edges."""
    succ = {v: [] for v in range(1, g.n + 1)}
    for (u, v, _) in g.edges:
        succ[u].append(v)
    for start in succ:
        seen, queue = {start}, deque([start])
        while queue:
            for y in succ[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) != g.n:
            return False
    return True


class TestLaplacian:
    def test_two_node_symmetric(self):
        g = WeightedDigraph(n=2, edges=((1, 2, (1.0,)), (2, 1, (1.0,))))
        L = laplacian(g, 0)
        assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_row_sums_vanish_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 13))
            g = random_digraph(n, rng, density=float(rng.uniform(0.1, 0.9)))
            for k in range(2):
                L = laplacian(g, k)
                assert np.abs(L.sum(axis=1)).max() < 1e-12
                off = L - np.diag(np.diag(L))
                assert off.max() <= 0.0

    def test_directed_cycle_eigenvalues_match_charpoly_oracle(self):
        g = WeightedDigraph(n=3, edges=(
            (1, 2, (1.0,)), (2, 3, (1.0,)), (3, 1, (1.0,))))
        L = laplacian(g, 0)
        got = np.sort_complex(la.eigvals(L))
        oracle = np.sort_complex(np.roots(poly_det3(L)))
        assert np.abs(got - oracle).max() < 1e-9
        expected = np.sort_complex(np.array(
            [0.0, 1.5 - 0.5 * np.sqrt(3) * 1j, 1.5 + 0.5 * np.sqrt(3) * 1j]))
        assert np.abs(got - expected).max() < 1e-12

    def test_order_out_of_range(self):
        g = WeightedDigraph(n=2, edges=((1, 2, (1.0, 2.0)), (2, 1, (1.0, 2.0))))
        with pytest.raises(OrderMismatchError):
            laplacian(g, 2)

    def test_weight_validation(self):
        with pytest.raises(InvalidInputError):
            WeightedDigraph(n=2, edges=((1, 2, (0.0,)),))
        with pytest.raises(InvalidInputError):
            WeightedDigraph(n=2, edges=((1, 1, (1.0,)),))
        with pytest.raises(InvalidInputError):
            WeightedDigraph(n=2, edges=((1, 2, (1.0,)), (1, 2, (2.0,))))
        with pytest.raises(OrderMismatchError):
            WeightedDigraph(n=3, edges=((1, 2, (1.0,)), (2, 3, (1.0, 2.0))))


class TestConnectivity:
    def test_directed_cycle(self):
        g = WeightedDigraph(n=3, edges=(
            (1, 2, (1.0,)), (2, 3, (1.0,)), (3, 1, (1.0,))))
        assert is_strongly_connected(g)

    def test_one_way_path(self):
        g = WeightedDigraph(n=3, edges=((1, 2, (1.0,)), (2, 3, (1.0,))))
        assert not is_strongly_connected(g)

    def test_fig2_reconstruction_strongly_connected(self):
        net = fig2_din(seed=0)
        assert is_strongly_connected(net.graph)

    def test_single_node(self):
        assert is_strongly_connected(WeightedDigraph(n=1))

    @pytest.mark.parametrize("ensure_strong", [True, False])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reachability_oracle(self, seed, ensure_strong):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 12))
        g = random_digraph(n, rng, density=float(rng.uniform(0.1, 0.5)),
                           ensure_strong=ensure_strong)
        assert is_strongly_connected(g) == reaches_all(g)


def undirected(n, pairs, order=1):
    edges = []
    for (a, b) in pairs:
        w = tuple(1.0 for _ in range(order))
        edges.append((a, b, w))
        edges.append((b, a, w))
    return WeightedDigraph(n=n, edges=tuple(edges))


class TestMinVertexCut:
    def test_path_graph_middle_node(self):
        g = undirected(3, [(1, 2), (2, 3)])
        plan = min_vertex_cut(g, [1], [3])
        assert plan.vcut == (2,)
        assert plan.v1 == (1,)
        assert plan.v2 == (3,)
        assert plan.permutation == (1, 2, 3)

    def test_fig2_single_node_cut(self):
        net = fig2_din(seed=1)
        plan = min_vertex_cut(net.graph, FIG2_ACTUATION, FIG2_MEASUREMENT)
        assert plan.vcut == (5,)
        assert set(plan.v1) == {1, 2, 3, 4, 10}
        assert set(plan.v2) == {6, 7, 8, 9, 11}

    def test_complete_graph_falls_back_to_measurement(self):
        g = undirected(4, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])
        plan = min_vertex_cut(g, [1], [4])
        assert plan.vcut == exhaustive_min_cut(g, [1], [4]) == (4,)
        assert len(plan.vcut) <= 1

    def test_actuation_nodes_never_cut(self):
        # cutting actuation node 1 alone would separate; the cut must not
        g = undirected(5, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)])
        plan = min_vertex_cut(g, [1], [4, 5])
        assert plan.vcut == exhaustive_min_cut(g, [1], [4, 5]) == (2, 3)

    def test_free_component_joins_v1(self):
        g = undirected(4, [(1, 2), (2, 3), (2, 4)])
        plan = min_vertex_cut(g, [1], [3])
        assert (plan.v1, plan.vcut, plan.v2) == ((1, 4), (2,), (3,))

    def test_partition_rejects_non_separating_cut(self):
        g = undirected(3, [(1, 2), (2, 3)])
        with pytest.raises(InvalidInputError, match="does not separate"):
            _partition_after_removal(g, set(), [1], [3])

    def test_overlap_rejected(self):
        g = undirected(3, [(1, 2), (2, 3)])
        with pytest.raises(InvalidInputError):
            min_vertex_cut(g, [1, 2], [2, 3])

    def test_not_strongly_connected_rejected(self):
        g = WeightedDigraph(n=3, edges=((1, 2, (1.0,)), (2, 3, (1.0,))))
        with pytest.raises(InvalidInputError):
            min_vertex_cut(g, [1], [3])

    @pytest.mark.parametrize("seed, ensure_strong", [
        *(pytest.param(s, True, id=f"{s}") for s in range(12)),
        *(pytest.param(s, False, id=f"{s}-no-ring") for s in range(12))])
    def test_matches_exhaustive_oracle(self, seed, ensure_strong):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 10))
        g = random_digraph(n, rng, density=0.3, ensure_strong=ensure_strong)
        nodes = list(rng.permutation(np.arange(1, n + 1)))
        actuation = [int(x) for x in nodes[:2]]
        measurement = [int(x) for x in nodes[2:4]]
        if not reaches_all(g):
            with pytest.raises(InvalidInputError, match="strongly connected"):
                min_vertex_cut(g, actuation, measurement)
            return
        plan = min_vertex_cut(g, actuation, measurement)
        oracle = exhaustive_min_cut(g, actuation, measurement)
        assert len(plan.vcut) == len(oracle)
        assert plan.vcut == oracle
        assert len(plan.vcut) <= len(measurement)

    @pytest.mark.parametrize("seed", range(8))
    def test_cut_removal_disconnects(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 11))
        g = random_digraph(n, rng, density=0.25)
        actuation, measurement = [1], [n]
        plan = min_vertex_cut(g, actuation, measurement)
        assert undirected_separates(g, plan.vcut, actuation, measurement)
        s1, s2 = set(plan.v1), set(plan.v2)
        for (u, v, _) in g.edges:
            assert not (u in s1 and v in s2)
            assert not (u in s2 and v in s1)

    @pytest.mark.parametrize("n1, n2, cut_size", [(20, 30, 1), (40, 40, 2),
                                                   (50, 50, 3)])
    def test_bridges_of_cut_friendly_network(self, n1, n2, cut_size):
        # m = cut_size, so the measurement set is a second minimum cut and
        # the smaller bridge ids must win the lexicographic tie
        net = cut_friendly_network(n1, n2, cut_size=cut_size, m=cut_size)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        bridges = tuple(range(n1 + 1, n1 + cut_size + 1))
        assert plan.vcut == bridges
        assert plan.v1 == tuple(range(1, n1 + 1))
        assert plan.v2 == tuple(range(n1 + cut_size + 1, net.n + 1))

    def test_plan_validation(self):
        g = undirected(3, [(1, 2), (2, 3)])
        bad = CutsetPlan(v1=(1, 2), vcut=(), v2=(3,), permutation=(1, 2, 3))
        with pytest.raises(InvalidInputError):
            bad.validate(g, [1], [3])
