"""Shared helpers for the test suite."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from obsblock.graph import WeightedDigraph


def without_dropped_keys(record: dict) -> dict:
    """A parsed design record without the keys older formats wrote and
    the current writer drops: the six that formats /1 to /5 wrote and
    that restate others (lambda_index and preserved, and in the cutset
    section the plan's permutation, the L_g lambda_p and satisfied flag
    and cut_zero_pattern), and the cutset section's
    derivative_relation_residual of formats /1 to /6."""
    data = {k: v for k, v in record.items() if k not in ("lambda_index", "preserved")}
    if "cutset" in data:
        cut = {k: v for k, v in data["cutset"].items()
               if k not in ("cut_zero_pattern", "derivative_relation_residual")}
        cut["plan"] = {k: v for k, v in cut["plan"].items() if k != "permutation"}
        cut["lg"] = {k: v for k, v in cut["lg"].items()
                     if k not in ("lambda_p", "satisfied")}
        data["cutset"] = cut
    return data


def random_digraph(n, rng, density=0.35, order=2, ensure_strong=True):
    """Random graph used across tests; a seeded ring guarantees strong
    connectivity when requested."""
    edges = {}
    if ensure_strong:
        perm = rng.permutation(np.arange(1, n + 1))
        for i in range(n):
            u, v = int(perm[i]), int(perm[(i + 1) % n])
            edges[(u, v)] = tuple(float(rng.uniform(0.5, 1.5)) for _ in range(order))
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and (u, v) not in edges and rng.random() < density:
                edges[(u, v)] = tuple(float(rng.uniform(0.5, 1.5))
                                      for _ in range(order))
    return WeightedDigraph(
        n=n, edges=tuple((u, v, w) for (u, v), w in sorted(edges.items())))


def undirected_separates(g: WeightedDigraph, cut, actuation, measurement) -> bool:
    """True iff removing `cut` leaves no undirected path from actuation
    to measurement (independent of the package's partition code)."""
    cut = set(cut)
    if set(actuation) & cut:
        return False
    adj = {v: set() for v in range(1, g.n + 1)}
    for (u, v, _) in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    frontier = [a for a in actuation if a not in cut]
    seen = set(frontier)
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in cut and y not in seen:
                seen.add(y)
                frontier.append(y)
    return not (seen & set(m for m in measurement if m not in cut))


def exhaustive_min_cut(g: WeightedDigraph, actuation, measurement):
    """Brute-force smallest separator, lexicographically smallest on ties."""
    candidates = [v for v in range(1, g.n + 1) if v not in actuation]
    for size in range(len(candidates) + 1):
        best = None
        for combo in combinations(candidates, size):
            if undirected_separates(g, combo, actuation, measurement):
                if best is None or list(combo) < best:
                    best = list(combo)
        if best is not None:
            return tuple(best)
    raise AssertionError("no separator found")


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)
