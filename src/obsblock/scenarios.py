"""Bundled scenarios and seeded random instance generators.

The fig2-din scenario is a documented reconstruction of an 11-node
undirected benchmark graph in which node 5 is the unique single-node
separator between {1,2,3,4,10} and {6,7,8,9,11}; measurement sits at
{6,8,9,11} and actuation at {1,10}. Velocity-type couplings are drawn
overdamped so the open-loop spectrum is entirely real, which is the
regime where two actuators suffice for a one-node cut.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations, permutations

import numpy as np

from .designer import check_controllability
from .errors import ControllabilityError, GenerationError, InvalidInputError
from .graph import WeightedDigraph, is_strongly_connected
from .model import IntegratorNetwork, assemble
from .spectrum import decompose

FIG2_UNDIRECTED_EDGES = (
    (1, 2), (1, 3), (2, 4), (3, 4), (4, 10), (10, 1),
    (4, 5), (10, 5),
    (5, 6), (5, 7),
    (6, 7), (7, 8), (8, 9), (9, 11), (11, 6), (7, 9),
)
FIG2_MEASUREMENT = (6, 8, 9, 11)
FIG2_ACTUATION = (1, 10)
FIG2_ACTUATION_ORDER3 = (1, 4, 10)

SCENARIOS = ("fig2-din",)
_FIG2_TRIES = 50    # weight draws fig2_din makes before giving up
_RANDOM_TRIES = 200  # draws random_network makes before giving up


def _rng(seed: int, *key) -> np.random.Generator:
    """The generator of one draw, keyed by the seed and the draw's shape."""
    if seed < 0:
        raise InvalidInputError(f"seed {seed} is negative")
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _weights(rng, order: int, top=(4.0, 8.0)) -> tuple:
    """One edge's coupling weights, lowest derivative first: the top
    derivative is drawn from `top`, the others from (0.5, 1.5)."""
    return tuple(float(rng.uniform(*top)) if k == order - 1
                 else float(rng.uniform(0.5, 1.5)) for k in range(order))


def _undirected_graph(n, pairs, rng, order: int) -> WeightedDigraph:
    edges = []
    for (a, b) in pairs:
        ws = _weights(rng, order)
        edges.append((a, b, ws))
        edges.append((b, a, ws))
    return WeightedDigraph(n=n, edges=tuple(edges))


def _with_diagonals(net: IntegratorNetwork, draw) -> IntegratorNetwork:
    """The network with each coupling matrix's diagonal replaced by draw()."""
    mats = []
    for L in net.laplacians:
        M = L.copy()
        np.fill_diagonal(M, draw())
        mats.append(M)
    return replace(net, laplacians=tuple(mats))


def fig2_din(seed: int = 0, order: int = 2) -> IntegratorNetwork:
    """The reconstructed 11-node benchmark network.

    Weights are random positive draws; the top-derivative couplings are
    drawn from a heavier range and draws are repeated until the
    spectrum is all-real (order 2 only) and (A, B) is controllable.
    """
    if order < 2:
        raise InvalidInputError("order must be >= 2")
    act = FIG2_ACTUATION if order == 2 else FIG2_ACTUATION_ORDER3
    rng = _rng(seed, order, 0xF162)
    for _ in range(_FIG2_TRIES):
        graph = _undirected_graph(11, FIG2_UNDIRECTED_EDGES, rng, order)
        net = IntegratorNetwork.from_graph(graph, act, FIG2_MEASUREMENT)
        sd = decompose(assemble(net)[0])
        if order == 2 and not sd.all_real():
            continue
        try:
            check_controllability(net, sd)
        except ControllabilityError:
            continue
        return net
    raise GenerationError(
        f"no admissible fig2 weight draw within {_FIG2_TRIES} tries (seed {seed})")


def random_network(n: int, order: int = 2, density: float = 0.3,
                   seed: int = 0, m: int = 1, q: int | None = None,
                   overdamped: bool = False,
                   undirected: bool = False) -> IntegratorNetwork:
    """Random strongly connected positive-weight network.

    Measurement nodes are the last m ids, actuation the first q; draws
    repeat until the digraph is strongly connected.
    """
    if n < 2:
        raise InvalidInputError("need at least two nodes")
    if not 0.0 < density <= 1.0:
        raise InvalidInputError("density must be in (0, 1]")
    q = m + 2 if q is None else q
    if q + m > n:
        raise InvalidInputError(
            f"q + m = {q + m} exceeds n = {n}; actuation and measurement overlap")
    rng = _rng(seed, n, order, 0x6E37)
    top = (4.0, 8.0) if overdamped else (0.5, 1.5)
    pairs = combinations if undirected else permutations
    for _ in range(_RANDOM_TRIES):
        edges = []
        for u, v in pairs(range(1, n + 1), 2):
            if rng.random() < density:
                ws = _weights(rng, order, top)
                edges.append((u, v, ws))
                if undirected:
                    edges.append((v, u, ws))
        graph = WeightedDigraph(n=n, edges=tuple(edges))
        if not is_strongly_connected(graph):
            continue
        return IntegratorNetwork.from_graph(
            graph, tuple(range(1, q + 1)), tuple(range(n - m + 1, n + 1)))
    raise GenerationError(
        f"no strongly connected draw at density {density} within {_RANDOM_TRIES} tries")


def generic_network(n: int, order: int = 2, density: float = 0.4,
                    seed: int = 0, m: int = 1, q: int | None = None) -> IntegratorNetwork:
    """Graph-sparse network with non-Laplacian coupling matrices.

    Off-diagonal entries follow the edge pattern, diagonals are generic
    positive draws instead of row sums, so there is no structural zero
    eigenvalue and the spectrum is non-defective generically.
    """
    base = random_network(n, order, density, seed, m, q)
    rng = _rng(seed, n, order, 0x9E4E)
    return _with_diagonals(
        base, lambda: rng.uniform(0.5, 1.5, n) * (1 + np.arange(n) % 3))


def cut_friendly_network(n1_size: int, n2_size: int, order: int = 2,
                         seed: int = 0, m: int = 1, q: int | None = None,
                         generic: bool = False, cut_size: int = 1) -> IntegratorNetwork:
    """Two dense undirected clusters joined only through `cut_size` bridge nodes.

    Actuation lives in the first cluster, measurement in the second, so
    the bridge nodes are the unique minimum separator.
    """
    n = n1_size + cut_size + n2_size
    q = m + 2 if q is None else q
    if q > n1_size or m > n2_size:
        raise InvalidInputError("clusters too small for the requested q, m")
    rng = _rng(seed, n, order, 0xC11F)
    first = list(range(1, n1_size + 1))
    bridge = list(range(n1_size + 1, n1_size + cut_size + 1))
    second = list(range(n1_size + cut_size + 1, n + 1))
    pairs = set()
    for grp in (first, second):
        for i, u in enumerate(grp):
            for v in grp[i + 1:]:
                if rng.random() < 0.7:
                    pairs.add((u, v))
        # ring so each cluster stays connected regardless of the draw
        for i in range(len(grp)):
            pairs.add(tuple(sorted((grp[i], grp[(i + 1) % len(grp)]))))
    for b in bridge:
        pairs.add((min(first[0], b), max(first[0], b)))
        pairs.add((min(second[0], b), max(second[0], b)))
        for grp in (first, second):
            for v in grp[1:]:
                if rng.random() < 0.4:
                    pairs.add(tuple(sorted((b, v))))

    graph = _undirected_graph(n, sorted(pairs), rng, order)
    net = IntegratorNetwork.from_graph(graph, first[:q], second[-m:])
    if not generic:
        return net
    return _with_diagonals(net, lambda: rng.uniform(1.0, 3.0, n))
