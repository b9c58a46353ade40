"""Weighted digraphs, Laplacians, connectivity and vertex cutsets.

Node ids are 1-based at the API surface and 0-based internally; the
renumbering permutation of a CutsetPlan, derived from its partition, is
the single source of truth for reordering, the graph itself is never
mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_flow

from .errors import InvalidInputError, OrderMismatchError


class WeightedDigraph:
    """Directed graph with one positive weight per derivative order on each edge.

    Parameters
    ----------
    n : int
        Node count; nodes are labeled 1..n.
    edges : iterable
        Entries (from_id, to_id, weights) where weights has length equal
        to the network order N and every weight is strictly positive.

    The graph is its read-only edge arrays, in edge order: the 0-based
    tail and head ids and the (edges x order) weight array (tails,
    heads, weights). The constructor converts every entry once (int ids,
    float weights); from_arrays takes the arrays without per-edge
    objects. Both check the edges with the same array operations, and
    `edges` is derived from the arrays on first use.
    """

    def __init__(self, n: int, edges=()):
        us, vs, wss = [], [], []
        unconverted = None
        try:
            for u, v, ws in edges:
                u, v, ws = int(u), int(v), tuple(map(float, ws))
                us.append(u)
                vs.append(v)
                wss.append(ws)
        except Exception as exc:   # noqa: BLE001 - re-raised once the edges
            unconverted = exc      # before the unconvertible one are checked
        counts = np.fromiter(map(len, wss), np.intp, len(wss))
        flat = np.fromiter(chain.from_iterable(wss), float, int(counts.sum()))
        self._keep(n, us, vs, counts, flat)
        if unconverted is not None:
            raise unconverted

    @classmethod
    def from_arrays(cls, n: int, sources, targets, weights) -> "WeightedDigraph":
        """Graph from 1-based tail and head id sequences and an
        (edges x order) weight array, checked as the constructor checks
        its entries."""
        weights = np.array(weights, dtype=float, order="C")
        m = len(sources)
        if len(targets) != m or weights.ndim != 2 or len(weights) != m:
            raise InvalidInputError(
                f"{m} tails, {len(targets)} heads and weights of shape "
                f"{weights.shape} do not describe one edge list")
        g = cls.__new__(cls)
        g._keep(n, sources, targets, np.full(m, weights.shape[1], np.intp),
                weights.ravel())
        return g

    def _keep(self, n, us, vs, counts, flat):
        if n < 1:
            raise InvalidInputError(f"node count must be positive, got {n}")
        arrays = _checked_edge_arrays(n, us, vs, counts, flat)
        for a in arrays:
            a.flags.writeable = False
        self.n = n
        self.tails, self.heads, self.weights = arrays

    @cached_property
    def edges(self) -> tuple:
        """(from_id, to_id, weights) per edge: 1-based ints and a tuple of floats."""
        return tuple(zip((self.tails + 1).tolist(), (self.heads + 1).tolist(),
                         map(tuple, self.weights.tolist())))

    @property
    def order(self) -> int:
        """Number of weights per edge (network order N); 0 for edgeless graphs."""
        return self.weights.shape[1]

    def __eq__(self, other):
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(a, b) for a, b in ((self.tails, other.tails),
                                              (self.heads, other.heads),
                                              (self.weights, other.weights)))

    def __hash__(self):
        return hash((self.n, self.weights.shape, self.tails.tobytes(),
                     self.heads.tobytes(), self.weights.tobytes()))

    def __repr__(self):
        return f"WeightedDigraph(n={self.n!r}, edges={self.edges!r})"


def _node_ids(ids, n) -> np.ndarray:
    try:
        return np.fromiter(ids, np.intp, len(ids))
    except OverflowError:   # beyond the C range is outside 1..n as well
        return np.fromiter((u if 1 <= u <= n else 0 for u in ids), np.intp, len(ids))


def _checked_edge_arrays(n, us, vs, counts: np.ndarray, flat: np.ndarray):
    """0-based tails and heads and the weight array of converted edges:
    1-based ids us and vs, each edge's weight count and all weights in
    edge order.

    Raises the error of the first bad edge, with the check that fails
    first in this order: ids in 1..n, no self-loop, no repeat of an
    earlier edge, as many weights as the first edge, at least one
    weight, every weight finite and positive (the first bad one named).
    """
    m = len(us)
    t, h = _node_ids(us, n), _node_ids(vs, n)
    width = int(counts[0]) if m else 0

    outside = (t < 1) | (t > n) | (h < 1) | (h > n)
    loop = t == h
    # out-of-range edges get distinct negative tails, so they repeat
    # nothing; the sort is stable, so equal pairs keep edge order
    tk = np.where(outside, -1 - np.arange(m), t)
    by_pair = np.lexsort((h, tk))
    later, earlier = by_pair[1:], by_pair[:-1]
    repeat = np.zeros(m, dtype=bool)
    repeat[later] = (tk[later] == tk[earlier]) & (h[later] == h[earlier])
    miscount = counts != width
    good = np.isfinite(flat) & (flat > 0.0)
    bad_weight = np.zeros(m, dtype=bool)
    bad_weight[np.repeat(np.arange(m), counts)[~good]] = True

    bad = np.flatnonzero(outside | loop | repeat | miscount | (counts == 0) | bad_weight)
    if bad.size:
        i = bad[0]
        u, v = us[i], vs[i]
        if outside[i]:
            raise InvalidInputError(f"edge ({u},{v}) outside node range 1..{n}")
        if loop[i]:
            raise InvalidInputError(f"self-loop at node {u}")
        if repeat[i]:
            raise InvalidInputError(f"duplicate edge ({u},{v})")
        if miscount[i]:
            raise OrderMismatchError(
                f"edge ({u},{v}) carries {counts[i]} weights, expected {width}")
        if not counts[i]:
            raise InvalidInputError(f"edge ({u},{v}) has no weights")
        start = int(counts[:i].sum())
        w = float(flat[start + np.argmin(good[start:start + counts[i]])])
        raise InvalidInputError(f"edge ({u},{v}) weight {w} not finite positive")
    return t - 1, h - 1, flat.reshape(m, width)


def _coupling(n: int, tails, heads, w) -> np.ndarray:
    # edges are unique, so each off-diagonal entry is written once; the
    # diagonal accumulates in edge order
    L = np.zeros((n, n))
    np.subtract.at(L, (heads, tails), w)
    np.add.at(L, (heads, heads), w)
    return L


def laplacian_stack(g: WeightedDigraph, order: int) -> list:
    """All N Laplacians of a graph whose edges carry N weights. In L^(k),
    an edge (u -> v, w) adds w_k to L[v,v] and -w_k to L[v,u], so L x sums
    the in-neighbor couplings of the node dynamics and rows sum to zero."""
    if g.tails.size and g.order != order:
        raise OrderMismatchError(f"graph carries {g.order} weights per edge, need {order}")
    if not g.tails.size:
        return [np.zeros((g.n, g.n)) for _ in range(order)]
    return [_coupling(g.n, g.tails, g.heads, g.weights[:, k]) for k in range(order)]


def _edge_matrix(g: WeightedDigraph, drop=()) -> csr_matrix:
    """0-based n x n adjacency with a 1 at (u-1, v-1) for each edge u -> v
    that touches no node in drop."""
    tails, heads = g.tails, g.heads
    if drop:
        dropped = np.zeros(g.n, dtype=bool)
        dropped[np.fromiter(drop, dtype=np.intp) - 1] = True
        keep = ~(dropped[tails] | dropped[heads])
        tails, heads = tails[keep], heads[keep]
    return csr_matrix((np.ones(len(tails), dtype=np.int32), (tails, heads)),
                      shape=(g.n, g.n))


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """True iff every node reaches every other along directed edges."""
    return connected_components(_edge_matrix(g), directed=True,
                                connection="strong", return_labels=False) == 1


@dataclass(frozen=True)
class CutsetPlan:
    """Vertex-cut partition (V1, Vcut, V2), each part ascending."""

    v1: tuple
    vcut: tuple
    v2: tuple

    def __post_init__(self):
        object.__setattr__(self, "v1", tuple(sorted(self.v1)))
        object.__setattr__(self, "vcut", tuple(sorted(self.vcut)))
        object.__setattr__(self, "v2", tuple(sorted(self.v2)))

    @property
    def permutation(self) -> tuple:
        """The original 1-based ids in new order: V1, then Vcut, then V2."""
        return self.v1 + self.vcut + self.v2

    @property
    def n(self) -> int:
        return len(self.v1) + len(self.vcut) + len(self.v2)

    def validate(self, g: WeightedDigraph, actuation, measurement) -> None:
        """Raise InvalidInputError unless this plan is a valid separator for g."""
        all_nodes = set(self.v1) | set(self.vcut) | set(self.v2)
        if all_nodes != set(range(1, g.n + 1)) or self.n != g.n:
            raise InvalidInputError("partition does not cover the node set exactly")
        if set(self.v1) & set(measurement):
            raise InvalidInputError("V1 contains a measurement node")
        if set(self.v2) & set(actuation):
            raise InvalidInputError("V2 contains an actuation node")
        side = np.zeros(g.n, dtype=np.int8)
        side[np.array(self.v1, dtype=np.intp) - 1] = 1
        side[np.array(self.v2, dtype=np.intp) - 1] = 2
        crossing = np.flatnonzero(side[g.tails] * side[g.heads] == 2)
        if crossing.size:
            i = crossing[0]
            raise InvalidInputError(
                f"edge ({g.tails[i] + 1},{g.heads[i] + 1}) crosses the cut")


_INF = 1 << 30  # "never cut"; fits the int32 capacities maximum_flow uses


def _split_network(g: WeightedDigraph, actuation, measurement) -> csr_matrix:
    """Node-split capacity matrix for the separating vertex cut.

    Node v (0-based i) becomes an in-copy i and an out-copy n + i joined
    by an internal arc of capacity 1, or _INF for actuation nodes, which
    are never cut; measurement nodes stay cuttable. Every undirected
    adjacency becomes _INF arcs out-copy -> in-copy in both directions,
    because a valid separator must kill edges between the partitions in
    either direction. The source 2n feeds the actuation in-copies and
    the measurement out-copies drain into the sink 2n + 1. Row i holds
    only the internal arc, so M.data[M.indptr[i]] is node i's capacity.
    """
    n = g.n
    adj = _edge_matrix(g)
    pairs = (adj + adj.T).tocoo()
    act = np.asarray(actuation) - 1
    meas = np.asarray(measurement) - 1
    nodes = np.arange(n)
    internal = np.ones(n, dtype=np.int32)
    internal[act] = _INF
    rows = np.concatenate([nodes, n + pairs.row, np.full(len(act), 2 * n), n + meas])
    cols = np.concatenate([n + nodes, pairs.col, act, np.full(len(meas), 2 * n + 1)])
    caps = np.concatenate([internal,
                           np.full(pairs.nnz + len(act) + len(meas), _INF, np.int32)])
    return csr_matrix((caps, (rows, cols)), shape=(2 * n + 2, 2 * n + 2))


def _cut_candidates(M: csr_matrix, flow: csr_matrix, n: int) -> np.ndarray:
    """Ascending 1-based ids of the nodes that lie in some minimum vertex cut.

    For any maximum flow, an arc lies in some minimum cut exactly when it
    is saturated and the residual graph has no path from its tail to its
    head (Picard & Queyranne, Math. Prog. Study 13, 1980). A saturated
    arc has a residual reverse arc, so that means its ends sit in
    different strong components. Actuation arcs carry _INF and are never
    saturated, so actuation nodes never appear.
    """
    residual = (M - flow).tocsr()
    residual.eliminate_zeros()
    labels = connected_components(residual, directed=True, connection="strong")[1]
    nodes = np.arange(n)
    through = np.asarray(flow[nodes, n + nodes]).ravel()
    saturated = through == M.data[M.indptr[:n]]
    return np.flatnonzero(saturated & (labels[:n] != labels[n:2 * n])) + 1


def min_vertex_cut(g: WeightedDigraph, actuation, measurement) -> CutsetPlan:
    """Minimum-cardinality vertex cut separating actuation from measurement.

    The cut may contain measurement nodes but never actuation nodes.
    Among all minimum cuts the lexicographically smallest sorted id list
    is returned; free components (touching neither side) land in V1.

    Raises
    ------
    InvalidInputError
        If the node sets overlap, are empty, or the graph is not
        strongly connected.
    """
    actuation = sorted(set(int(a) for a in actuation))
    measurement = sorted(set(int(b) for b in measurement))
    for v in actuation + measurement:
        if not 1 <= v <= g.n:
            raise InvalidInputError(f"node {v} outside 1..{g.n}")
    if set(actuation) & set(measurement):
        raise InvalidInputError("actuation and measurement sets overlap")
    if not actuation or not measurement:
        raise InvalidInputError("actuation and measurement sets must be nonempty")
    if not is_strongly_connected(g):
        raise InvalidInputError("graph is not strongly connected")

    M = _split_network(g, actuation, measurement)
    source, sink = 2 * g.n, 2 * g.n + 1
    first = maximum_flow(M, source, sink)
    k = first.flow_value
    # lexicographically smallest minimum cut: force candidates in id order
    # by cutting their internal arc, and restore it when that costs extra;
    # a node in no minimum cut always costs extra, so only candidates run
    forced = []
    for v in _cut_candidates(M, first.flow, g.n):
        if len(forced) == k:
            break
        M.data[M.indptr[v - 1]] = 0
        if len(forced) + 1 + maximum_flow(M, source, sink).flow_value == k:
            forced.append(int(v))
        else:
            M.data[M.indptr[v - 1]] = 1
    if len(forced) != k:
        raise InvalidInputError("internal cut refinement failed")  # pragma: no cover

    cut = set(forced)
    v1, v2 = _partition_after_removal(g, cut, actuation, measurement)
    plan = CutsetPlan(v1=tuple(v1), vcut=tuple(cut), v2=tuple(v2))
    plan.validate(g, actuation, measurement)
    return plan


def _partition_after_removal(g, cut, actuation, measurement):
    """Components of g minus cut, assigned to sides; free components join V1."""
    labels = connected_components(_edge_matrix(g, drop=cut), directed=True,
                                  connection="weak")[1]
    act_sides = {labels[a - 1] for a in actuation}
    meas_sides = {labels[b - 1] for b in measurement if b not in cut}
    if act_sides & meas_sides:
        raise InvalidInputError("cut does not separate actuation from measurement")
    alive = [v for v in range(1, g.n + 1) if v not in cut]
    v2 = [v for v in alive if labels[v - 1] in meas_sides]
    v1 = [v for v in alive if labels[v - 1] not in meas_sides]
    return v1, v2
