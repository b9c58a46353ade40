from __future__ import annotations

from collections import deque
import math

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import maximum_flow

from obsblock import graph
from obsblock.errors import InvalidInputError, OrderMismatchError
from obsblock.graph import (CutsetPlan, WeightedDigraph, _cut_candidates,
                            _partition_after_removal, _split_network,
                            is_strongly_connected, laplacian_stack,
                            min_vertex_cut)
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


def reference_laplacian(g, k):
    """The per-edge loop: each edge adds its weight to the head's diagonal."""
    L = np.zeros((g.n, g.n))
    for (u, v, ws) in g.edges:
        L[v - 1, u - 1] -= ws[k]
        L[v - 1, v - 1] += ws[k]
    return L


def reference_min_vertex_cut(g, actuation, measurement):
    """The forcing loop without the residual-graph screen: one extra
    max-flow for every non-actuation node, in id order."""
    actuation, measurement = sorted(set(actuation)), sorted(set(measurement))
    M = _split_network(g, actuation, measurement)

    def flow():
        return maximum_flow(M, 2 * g.n, 2 * g.n + 1).flow_value

    k = flow()
    forced = []
    for v in range(1, g.n + 1):
        if len(forced) == k:
            break
        if v in actuation:
            continue
        M.data[M.indptr[v - 1]] = 0
        if len(forced) + 1 + flow() == k:
            forced.append(v)
        else:
            M.data[M.indptr[v - 1]] = 1
    v1, v2 = _partition_after_removal(g, set(forced), actuation, measurement)
    return tuple(sorted(v1)), tuple(forced), tuple(sorted(v2))


def in_some_minimum_cut(g, actuation, measurement):
    """Nodes whose removal alone leaves the cut size one smaller, by one
    max-flow per node on a fresh split network."""
    M = _split_network(g, sorted(actuation), sorted(measurement))
    k = maximum_flow(M, 2 * g.n, 2 * g.n + 1).flow_value
    found = []
    for v in range(1, g.n + 1):
        if v in actuation:
            continue
        cut = M.copy()
        cut.data[cut.indptr[v - 1]] = 0
        if 1 + maximum_flow(cut, 2 * g.n, 2 * g.n + 1).flow_value == k:
            found.append(v)
    return found


@st.composite
def separable_digraphs(draw):
    """Strongly connected digraphs on 3..12 nodes with disjoint nonempty
    actuation and measurement sets; symmetric draws give tied cuts."""
    n = draw(st.integers(3, 12))
    symmetric = draw(st.booleans())
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
             if (u < v if symmetric else u != v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    ring = draw(st.permutations(range(1, n + 1)))
    edges = set(chosen) | {(ring[i], ring[(i + 1) % n]) for i in range(n)}
    if symmetric:
        edges |= {(v, u) for (u, v) in edges}
    g = WeightedDigraph(n=n, edges=tuple((u, v, (1.0,)) for (u, v) in sorted(edges)))
    nodes = draw(st.permutations(range(1, n + 1)))
    q = draw(st.integers(1, n - 2))
    m = draw(st.integers(1, n - q))
    return g, sorted(nodes[:q]), sorted(nodes[q:q + m])


def reference_edges(n, edges):
    """The former per-edge conversion and validation loop of WeightedDigraph:
    the normalized edge tuple, or the first error it raises."""
    if n < 1:
        raise InvalidInputError(f"node count must be positive, got {n}")
    norm = []
    seen = set()
    order = None
    for e in edges:
        u, v, ws = e
        u, v = int(u), int(v)
        ws = tuple(float(w) for w in ws)
        if not (1 <= u <= n and 1 <= v <= n):
            raise InvalidInputError(f"edge ({u},{v}) outside node range 1..{n}")
        if u == v:
            raise InvalidInputError(f"self-loop at node {u}")
        if (u, v) in seen:
            raise InvalidInputError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        if order is None:
            order = len(ws)
        elif len(ws) != order:
            raise OrderMismatchError(
                f"edge ({u},{v}) carries {len(ws)} weights, expected {order}")
        if not ws:
            raise InvalidInputError(f"edge ({u},{v}) has no weights")
        for w in ws:
            if not (math.isfinite(w) and w > 0.0):
                raise InvalidInputError(f"edge ({u},{v}) weight {w} not finite positive")
        norm.append((u, v, ws))
    return tuple(norm)


# entries that replace a field of a valid edge: ids outside 1..n or
# that int() takes (1.5, True, "2") or rejects; weights that fail the
# positivity check, that float() takes (2, "1.5") or rejects
_BAD_ID = st.sampled_from([0, -1, 99, 2**70, 1.5, True, "2", "x", None])
_BAD_WEIGHT = st.sampled_from([0.0, -1.0, math.inf, math.nan, 2, "1.5", "w", None])
_DEFECTS = ("from", "to", "weight", "count", "self-loop", "duplicate", "shape")


@st.composite
def edge_lists(draw):
    """(n, edges): distinct valid edges of one order, with defects
    injected at up to two drawn positions."""
    n = draw(st.integers(2, 6))
    order = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    weights = st.lists(st.floats(0.1, 3.0), min_size=order, max_size=order)
    edges = [(u, v, tuple(draw(weights))) for (u, v) in chosen]
    spots = st.lists(st.integers(0, len(edges) - 1), unique=True, max_size=2)
    for i in sorted(draw(spots) if edges else [], reverse=True):
        u, v, ws = edges[i]
        kind = draw(st.sampled_from(_DEFECTS))
        if kind == "from":
            edges[i] = (draw(_BAD_ID), v, ws)
        elif kind == "to":
            edges[i] = (u, draw(_BAD_ID), ws)
        elif kind == "weight":
            k = draw(st.integers(0, order - 1))
            edges[i] = (u, v, ws[:k] + (draw(_BAD_WEIGHT),) + ws[k + 1:])
        elif kind == "count":
            edges[i] = (u, v, draw(st.sampled_from([ws[:-1], ws[1:] + ws])))
        elif kind == "self-loop":
            edges[i] = (u, u, ws)
        elif kind == "duplicate" and i:
            edges[i] = edges[draw(st.integers(0, i - 1))][:2] + (ws,)
        else:
            edges[i] = draw(st.sampled_from([(u, v), (u, v, ws, 0), (u, v, 1.0)]))
    return n, edges


class TestWeightedDigraph:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(edge_lists())
    def test_matches_the_per_edge_loop(self, case):
        n, edges = case
        try:
            expected = reference_edges(n, edges)
        except Exception as exc:  # noqa: BLE001 - compared below
            with pytest.raises(type(exc)) as got:
                WeightedDigraph(n=n, edges=tuple(edges))
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            return
        g = WeightedDigraph(n=n, edges=tuple(edges))
        assert g.edges == expected
        assert [tuple(map(type, (u, v) + ws)) for (u, v, ws) in g.edges] == \
            [(int, int) + (float,) * len(ws) for (_, _, ws) in expected]
        m = len(expected)
        assert g.order == (len(expected[0][2]) if expected else 0)
        tails, heads, weights = g.tails, g.heads, g.weights
        assert tails.dtype == heads.dtype == np.intp
        assert tails.tolist() == [u - 1 for (u, _, _) in expected]
        assert heads.tolist() == [v - 1 for (_, v, _) in expected]
        assert weights.shape == (m, g.order)
        assert weights.tobytes() == np.array(
            [ws for (_, _, ws) in expected], dtype=float).reshape(m, g.order).tobytes()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(edge_lists())
    def test_from_arrays_checks_like_the_constructor(self, case):
        # the reader's path: converted ids and a regular weight array
        n, edges = case
        try:
            rows = [(int(u), int(v), tuple(map(float, ws))) for (u, v, ws) in edges]
        except (TypeError, ValueError):
            return
        if len({len(ws) for (_, _, ws) in rows}) > 1:
            return
        us, vs = [u for (u, _, _) in rows], [v for (_, v, _) in rows]
        weights = np.array([ws for (_, _, ws) in rows]) if rows else np.zeros((0, 0))
        try:
            expected = WeightedDigraph(n=n, edges=tuple(rows))
        except InvalidInputError as exc:
            with pytest.raises(type(exc)) as got:
                WeightedDigraph.from_arrays(n, us, vs, weights)
            assert str(got.value) == str(exc)
            return
        g = WeightedDigraph.from_arrays(n, us, vs, weights)
        assert "edges" not in vars(g)
        assert g == expected and hash(g) == hash(expected)
        assert g.edges == expected.edges == tuple(rows)
        for a in (g.tails, g.heads, g.weights):
            assert not a.flags.writeable

    def test_from_arrays_takes_one_edge_list(self):
        with pytest.raises(InvalidInputError, match="do not describe one edge list"):
            WeightedDigraph.from_arrays(3, [1, 2], [2], np.ones((2, 1)))
        with pytest.raises(InvalidInputError, match="do not describe one edge list"):
            WeightedDigraph.from_arrays(3, [1, 2], [2, 3], np.ones(2))
        weights = np.ones((2, 1))
        g = WeightedDigraph.from_arrays(3, [1, 2], [2, 3], weights)
        weights[0, 0] = 5.0
        assert g.weights.tolist() == [[1.0], [1.0]]

    def test_checks_report_the_first_bad_edge(self):
        # edge 2 repeats edge 0 and edge 3 is out of range: edge 2 wins;
        # an unconvertible edge is reached only after the edges before it
        cases = [
            (((1, 2, (1.0,)), (2, 3, (1.0,)), (1, 2, (2.0,)), (9, 1, (1.0,))),
             InvalidInputError, "duplicate edge (1,2)"),
            (((1, 2, (1.0,)), (2, 2, (1.0,)), (1, 2, (1.0,))),
             InvalidInputError, "self-loop at node 2"),
            (((1, 2, (1.0,)), (2, 2, (1.0,)), ("x", 1, (1.0,))),
             InvalidInputError, "self-loop at node 2"),
            (((1, 2, (1.0,)), ("x", 1, (1.0,)), (2, 2, (1.0,))),
             ValueError, "invalid literal for int() with base 10: 'x'"),
            (((1, 2, (1.0, 1.0)), (2, 3, (1.0,))),
             OrderMismatchError, "edge (2,3) carries 1 weights, expected 2"),
            (((1, 2, (1.0, -0.5)), (2, 3, (1.0, 1.0))),
             InvalidInputError, "edge (1,2) weight -0.5 not finite positive"),
            (((2**70, 2, (1.0,)),),
             InvalidInputError, f"edge ({2**70},2) outside node range 1..3"),
        ]
        for edges, kind, message in cases:
            with pytest.raises(kind) as got:
                WeightedDigraph(n=3, edges=edges)
            assert str(got.value) == message

    def test_node_count_must_be_positive(self):
        for make in (lambda: WeightedDigraph(n=0),
                     lambda: WeightedDigraph.from_arrays(0, [], [], np.zeros((0, 1)))):
            with pytest.raises(InvalidInputError,
                               match=r"^node count must be positive, got 0$"):
                make()

    def test_keeps_read_only_edge_arrays(self):
        g = WeightedDigraph(n=3, edges=((2, 1, (1.0, 2.0)), (3, 2, (3.0, 4.0))))
        for a in (g.tails, g.heads, g.weights):
            assert not a.flags.writeable
        assert g.tails.tolist() == [1, 2] and g.heads.tolist() == [0, 1]
        assert g == WeightedDigraph(n=3, edges=[(2, 1, [1, 2]), (3, 2, (3.0, 4.0))])
        assert g != WeightedDigraph(n=4, edges=g.edges)
        assert g != WeightedDigraph(n=3, edges=((2, 1, (1.0, 2.0)),))
        assert repr(g) == \
            "WeightedDigraph(n=3, edges=((2, 1, (1.0, 2.0)), (3, 2, (3.0, 4.0))))"
        empty = WeightedDigraph(n=2)
        assert empty.order == 0 and empty.weights.shape == (0, 0)
        assert empty.edges == ()


class TestLaplacian:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_edge_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(700 + seed)
        g = random_digraph(int(rng.integers(2, 30)), rng,
                           density=float(rng.uniform(0.1, 0.9)), order=3)
        for k, L in enumerate(laplacian_stack(g, 3)):
            assert L.tobytes() == reference_laplacian(g, k).tobytes()
        empty, = laplacian_stack(WeightedDigraph(n=3), 1)
        assert empty.tobytes() == np.zeros((3, 3)).tobytes()

    def test_two_node_symmetric(self):
        g = WeightedDigraph(n=2, edges=((1, 2, (1.0,)), (2, 1, (1.0,))))
        L, = laplacian_stack(g, 1)
        assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_row_sums_vanish_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 13))
            g = random_digraph(n, rng, density=float(rng.uniform(0.1, 0.9)))
            for L in laplacian_stack(g, 2):
                assert np.abs(L.sum(axis=1)).max() < 1e-12
                off = L - np.diag(np.diag(L))
                assert off.max() <= 0.0

    def test_directed_cycle_eigenvalues_match_charpoly_oracle(self):
        g = WeightedDigraph(n=3, edges=(
            (1, 2, (1.0,)), (2, 3, (1.0,)), (3, 1, (1.0,))))
        L, = laplacian_stack(g, 1)
        got = np.sort_complex(la.eigvals(L))
        oracle = np.sort_complex(np.roots(poly_det3(L)))
        assert np.abs(got - oracle).max() < 1e-9
        expected = np.sort_complex(np.array(
            [0.0, 1.5 - 0.5 * np.sqrt(3) * 1j, 1.5 + 0.5 * np.sqrt(3) * 1j]))
        assert np.abs(got - expected).max() < 1e-12

    def test_order_out_of_range(self):
        g = WeightedDigraph(n=2, edges=((1, 2, (1.0, 2.0)), (2, 1, (1.0, 2.0))))
        with pytest.raises(OrderMismatchError,
                           match=r"^graph carries 2 weights per edge, need 3$"):
            laplacian_stack(g, 3)

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

    @pytest.mark.parametrize("actuation, measurement, message", [
        ([1], [4], "node 4 outside 1..3"),
        ([0], [3], "node 0 outside 1..3"),
        ([], [3], "actuation and measurement sets must be nonempty"),
        ([1], [], "actuation and measurement sets must be nonempty")],
        ids=["outside-above", "outside-below", "no-actuation", "no-measurement"])
    def test_bad_node_sets_rejected_by_name(self, actuation, measurement, message):
        g = undirected(3, [(1, 2), (2, 3)])
        with pytest.raises(InvalidInputError) as got:
            min_vertex_cut(g, actuation, measurement)
        assert str(got.value) == message

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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(separable_digraphs())
    def test_screened_refinement_matches_the_full_forcing_loop(self, case):
        g, actuation, measurement = case
        plan = min_vertex_cut(g, actuation, measurement)
        assert (plan.v1, plan.vcut, plan.v2) == reference_min_vertex_cut(
            g, actuation, measurement)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(separable_digraphs())
    def test_candidates_are_the_nodes_in_some_minimum_cut(self, case):
        g, actuation, measurement = case
        M = _split_network(g, actuation, measurement)
        result = maximum_flow(M, 2 * g.n, 2 * g.n + 1)
        assert list(_cut_candidates(M, result.flow, g.n)) == \
            in_some_minimum_cut(g, actuation, measurement)

    @pytest.mark.parametrize("n1, n2, cut_size, m", [
        (6, 6, 1, 1), (8, 7, 2, 2), (10, 10, 3, 3), (12, 9, 2, 1)])
    def test_screened_refinement_breaks_ties_like_the_full_loop(
            self, n1, n2, cut_size, m):
        net = cut_friendly_network(n1, n2, cut_size=cut_size, m=m)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        assert (plan.v1, plan.vcut, plan.v2) == reference_min_vertex_cut(
            net.graph, net.actuation, net.measurement)

    def test_refinement_runs_one_flow_per_candidate(self, monkeypatch):
        net = cut_friendly_network(50, 50, cut_size=1)
        candidates = in_some_minimum_cut(net.graph, net.actuation, net.measurement)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return maximum_flow(*args, **kwargs)

        monkeypatch.setattr(graph, "maximum_flow", counted)
        plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
        assert plan.vcut == (51,)
        assert len(calls) <= 1 + len(candidates) < 10

    def test_plan_validation(self):
        g = undirected(3, [(1, 2), (2, 3)])
        bad = CutsetPlan(v1=(1, 2), vcut=(), v2=(3,))
        with pytest.raises(InvalidInputError, match=r"^edge \(2,3\) crosses the cut$"):
            bad.validate(g, [1], [3])

    @pytest.mark.parametrize("parts, message", [
        (((1,), (2,), ()), "partition does not cover the node set exactly"),
        (((1, 2), (2,), (3,)), "partition does not cover the node set exactly"),
        (((1, 3), (2,), ()), "V1 contains a measurement node"),
        (((), (2,), (1, 3)), "V2 contains an actuation node")],
        ids=["missing-node", "repeated-node", "measurement-in-v1", "actuation-in-v2"])
    def test_invalid_plan_rejected_by_name(self, parts, message):
        g = undirected(3, [(1, 2), (2, 3)])
        v1, vcut, v2 = parts
        with pytest.raises(InvalidInputError) as got:
            CutsetPlan(v1=v1, vcut=vcut, v2=v2).validate(g, [1], [3])
        assert str(got.value) == message

    def test_permutation_is_the_partition_in_order(self):
        plan = CutsetPlan(v1=(4, 1), vcut=(3,), v2=(5, 2))
        assert plan.permutation == (1, 4, 3, 2, 5)
        with pytest.raises(TypeError):
            CutsetPlan(v1=(1,), vcut=(2,), v2=(3,), permutation=(1, 2, 3))

    @pytest.mark.parametrize("seed", range(8))
    def test_plan_validation_names_the_first_crossing_edge(self, seed):
        # a random split of a random digraph, against a per-edge scan
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(3, 12))
        g = random_digraph(n, rng, density=float(rng.uniform(0.1, 0.6)))
        side = rng.integers(0, 3, n)
        v1, vcut, v2 = (tuple(int(i) + 1 for i in np.flatnonzero(side == k))
                        for k in range(3))
        plan = CutsetPlan(v1=v1, vcut=vcut, v2=v2)
        crossing = [(u, v) for (u, v, _) in g.edges
                    if {side[u - 1], side[v - 1]} == {0, 2}]
        if not crossing:
            plan.validate(g, [], [])
            return
        with pytest.raises(InvalidInputError) as got:
            plan.validate(g, [], [])
        u, v = crossing[0]
        assert str(got.value) == f"edge ({u},{v}) crosses the cut"
