"""Weighted digraphs, Laplacians, connectivity and vertex cutsets.

Node ids are 1-based at the API surface and 0-based internally; the
renumbering permutation carried by a CutsetPlan is the single source of
truth for reordering, the graph itself is never mutated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
import math

import numpy as np

from .errors import InvalidInputError, OrderMismatchError


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph with one positive weight per derivative order on each edge.

    Parameters
    ----------
    n : int
        Node count; nodes are labeled 1..n.
    edges : tuple
        Entries (from_id, to_id, weights) where weights has length equal
        to the network order N and every weight is strictly positive.
    """

    n: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"node count must be positive, got {self.n}")
        norm = []
        seen = set()
        order = None
        for e in self.edges:
            u, v, ws = e
            u, v = int(u), int(v)
            ws = tuple(float(w) for w in ws)
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise InvalidInputError(f"edge ({u},{v}) outside node range 1..{self.n}")
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
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def order(self) -> int:
        """Number of weights per edge (network order N); 0 for edgeless graphs."""
        return len(self.edges[0][2]) if self.edges else 0

    def undirected_pairs(self) -> set:
        """Unordered node pairs joined by an edge in at least one direction."""
        return {frozenset((u, v)) for (u, v, _) in self.edges}


def laplacian(g: WeightedDigraph, k: int) -> np.ndarray:
    """Weighted Laplacian for derivative order k.

    An edge (u -> v, w) adds w to L[v,v] and -w to L[v,u], so L x
    realizes the in-neighbor coupling sums of the node dynamics and all
    row sums vanish.
    """
    n_orders = g.order
    if g.edges and not (0 <= k < n_orders):
        raise OrderMismatchError(f"derivative order {k} outside 0..{n_orders - 1}")
    if not g.edges and k < 0:
        raise OrderMismatchError(f"derivative order {k} negative")
    L = np.zeros((g.n, g.n))
    for (u, v, ws) in g.edges:
        w = ws[k]
        L[v - 1, u - 1] -= w
        L[v - 1, v - 1] += w
    return L


def laplacian_stack(g: WeightedDigraph, order: int) -> list:
    """All N Laplacians of a graph whose edges carry N weights."""
    if g.edges and g.order != order:
        raise OrderMismatchError(f"graph carries {g.order} weights per edge, need {order}")
    return [laplacian(g, k) if g.edges else np.zeros((g.n, g.n)) for k in range(order)]


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """True iff every node reaches every other along directed edges."""
    if g.n == 1:
        return True
    fwd = [[] for _ in range(g.n + 1)]
    rev = [[] for _ in range(g.n + 1)]
    for (u, v, _) in g.edges:
        fwd[u].append(v)
        rev[v].append(u)
    for adj in (fwd, rev):
        seen = {1}
        stack = [1]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != g.n:
            return False
    return True


@dataclass(frozen=True)
class CutsetPlan:
    """Vertex-cut partition (V1, Vcut, V2) with its renumbering permutation.

    permutation lists the original 1-based ids in new order: V1 first,
    then Vcut, then V2, each ascending.
    """

    v1: tuple
    vcut: tuple
    v2: tuple
    permutation: tuple

    def __post_init__(self):
        object.__setattr__(self, "v1", tuple(sorted(self.v1)))
        object.__setattr__(self, "vcut", tuple(sorted(self.vcut)))
        object.__setattr__(self, "v2", tuple(sorted(self.v2)))
        object.__setattr__(self, "permutation", tuple(self.permutation))

    @property
    def n(self) -> int:
        return len(self.v1) + len(self.vcut) + len(self.v2)

    def validate(self, g: WeightedDigraph, actuation, measurement) -> None:
        """Raise InvalidInputError unless this plan is a valid separator for g."""
        all_nodes = set(self.v1) | set(self.vcut) | set(self.v2)
        if all_nodes != set(range(1, g.n + 1)) or self.n != g.n:
            raise InvalidInputError("partition does not cover the node set exactly")
        if set(self.permutation) != all_nodes or list(self.permutation) != (
                list(self.v1) + list(self.vcut) + list(self.v2)):
            raise InvalidInputError("permutation inconsistent with partition")
        if set(self.v1) & set(measurement):
            raise InvalidInputError("V1 contains a measurement node")
        if set(self.v2) & set(actuation):
            raise InvalidInputError("V2 contains an actuation node")
        s1, s2 = set(self.v1), set(self.v2)
        for (u, v, _) in g.edges:
            if (u in s1 and v in s2) or (u in s2 and v in s1):
                raise InvalidInputError(f"edge ({u},{v}) crosses the cut")


class _SplitFlow:
    """Edmonds-Karp on the node-split graph; unit node capacities.

    Protected nodes (actuation) get infinite internal capacity so they
    are never cut; measurement nodes stay cuttable. Edges become
    infinite-capacity arcs between out/in copies in both directions of
    the underlying undirected adjacency, because a valid separator must
    kill edges between the partitions in either direction.
    """

    INF = 1 << 30

    def __init__(self, g: WeightedDigraph, sources, sinks, removed):
        self.n = g.n
        # node v: in-copy = 2v, out-copy = 2v+1 (0-based v); s = 0, t = 1
        self.size = 2 * g.n + 2
        self.cap = {}
        sources, sinks, removed = set(sources), set(sinks), set(removed)
        for v in range(1, g.n + 1):
            if v in removed:
                continue
            c = self.INF if v in sources else 1
            self._add(2 * v, 2 * v + 1, c)
        for pair in g.undirected_pairs():
            u, v = sorted(pair)
            if u in removed or v in removed:
                continue
            self._add(2 * u + 1, 2 * v, self.INF)
            self._add(2 * v + 1, 2 * u, self.INF)
        for a in sources - removed:
            self._add(0, 2 * a, self.INF)
        for b in sinks - removed:
            self._add(2 * b + 1, 1, self.INF)
        self.adj = [[] for _ in range(self.size)]
        for (x, y) in self.cap:
            self.adj[x].append(y)

    def _add(self, x, y, c):
        self.cap[(x, y)] = self.cap.get((x, y), 0) + c
        self.cap.setdefault((y, x), 0)

    def max_flow(self) -> int:
        total = 0
        while True:
            parent = {0: None}
            queue = deque([0])
            while queue and 1 not in parent:
                x = queue.popleft()
                for y in self.adj[x]:
                    if y not in parent and self.cap[(x, y)] > 0:
                        parent[y] = x
                        queue.append(y)
            if 1 not in parent:
                return total
            path = []
            y = 1
            while parent[y] is not None:
                path.append((parent[y], y))
                y = parent[y]
            push = min(self.cap[e] for e in path)
            for e in path:
                self.cap[e] -= push
                self.cap[(e[1], e[0])] += push
            total += push

    def source_side(self) -> set:
        """0-based split-node ids reachable from s in the residual graph."""
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in self.adj[x]:
                if y not in seen and self.cap[(x, y)] > 0:
                    seen.add(y)
                    stack.append(y)
        return seen


def _min_cut_size(g: WeightedDigraph, actuation, measurement, removed) -> int:
    return _SplitFlow(g, actuation, measurement, removed).max_flow()


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

    k = _min_cut_size(g, actuation, measurement, removed=())
    # lexicographically smallest minimum cut: force candidates in id order
    forced = []
    if k > 0:
        for v in range(1, g.n + 1):
            if len(forced) == k:
                break
            if v in actuation:
                continue
            if len(forced) + 1 + _min_cut_size(
                    g, actuation, measurement, removed=forced + [v]) == k:
                forced.append(v)
    if len(forced) != k:
        raise InvalidInputError("internal cut refinement failed")  # pragma: no cover

    cut = set(forced)
    v1, v2 = _partition_after_removal(g, cut, actuation, measurement)
    perm = tuple(sorted(v1) + sorted(cut) + sorted(v2))
    plan = CutsetPlan(v1=tuple(v1), vcut=tuple(cut), v2=tuple(v2), permutation=perm)
    plan.validate(g, actuation, measurement)
    return plan


def _partition_after_removal(g, cut, actuation, measurement):
    """Components of g minus cut, assigned to sides; free components join V1."""
    alive = [v for v in range(1, g.n + 1) if v not in cut]
    neigh = {v: set() for v in alive}
    for pair in g.undirected_pairs():
        u, v = tuple(pair)
        if u in neigh and v in neigh:
            neigh[u].add(v)
            neigh[v].add(u)
    unvisited = set(alive)
    v1, v2 = [], []
    while unvisited:
        start = min(unvisited)
        comp = {start}
        stack = [start]
        unvisited.discard(start)
        while stack:
            x = stack.pop()
            for y in neigh[x]:
                if y in unvisited:
                    unvisited.discard(y)
                    comp.add(y)
                    stack.append(y)
        has_act = bool(comp & set(actuation))
        has_meas = bool(comp & set(measurement))
        if has_act and has_meas:
            raise InvalidInputError("cut does not separate actuation from measurement")
        if has_meas:
            v2.extend(comp)
        else:
            v1.extend(comp)
    return sorted(v1), sorted(v2)


