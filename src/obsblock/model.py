"""Order-N integrator network state-space assembly.

State ordering is all positions, then all first derivatives, and so on:
node j's k-th derivative is state k*n + j - 1 (j from 1).
IntegratorNetwork.state_index owns that arithmetic; the rest of the
package selects state rows through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (InvalidInputError, ModelAssemblyError, NetworkFileError,
                     OrderMismatchError)
from .graph import CutsetPlan, WeightedDigraph, laplacian_stack

_ROW_SUM_TOL = 1e-12    # relative row sum under which a coupling is Laplacian


@dataclass(frozen=True, eq=False)
class IntegratorNetwork:
    """An N-th order integrator network with actuation and measurement sets.

    The coupling matrices are stored explicitly so non-Laplacian models
    (generic diagonals, same sparsity) are first-class; use from_graph
    for the standard Laplacian form.
    """

    order: int
    graph: WeightedDigraph
    actuation: tuple
    measurement: tuple
    laplacians: tuple = field(default=None)
    # whether laplacians was given, so network_to_dict knows it may differ
    # from the Laplacian form it otherwise holds
    explicit_couplings: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if self.order < 2:
            raise InvalidInputError(f"network order must be >= 2, got {self.order}")
        act = tuple(int(a) for a in self.actuation)
        meas = tuple(int(b) for b in self.measurement)
        object.__setattr__(self, "actuation", act)
        object.__setattr__(self, "measurement", meas)
        n = self.graph.n
        for v in act + meas:
            if not 1 <= v <= n:
                raise InvalidInputError(f"node {v} outside 1..{n}")
        if len(set(act)) != len(act) or len(set(meas)) != len(meas):
            raise InvalidInputError("repeated node in actuation or measurement set")
        if set(act) & set(meas):
            raise InvalidInputError("actuation and measurement sets overlap")
        object.__setattr__(self, "explicit_couplings", self.laplacians is not None)
        if self.laplacians is None:
            mats = tuple(laplacian_stack(self.graph, self.order))
        else:
            mats = tuple(np.asarray(L, dtype=float) for L in self.laplacians)
            if len(mats) != self.order:
                raise ModelAssemblyError(
                    f"need {self.order} coupling matrices, got {len(mats)}")
            coupled = np.eye(n, dtype=bool)
            coupled[self.graph.heads, self.graph.tails] = True
            for k, L in enumerate(mats):
                if L.shape != (n, n):
                    raise ModelAssemblyError(
                        f"coupling matrix {k} has shape {L.shape}, expected {(n, n)}")
                bad = np.argwhere(~np.isfinite(L))
                if bad.size:
                    i, j = bad[0]
                    raise ModelAssemblyError(
                        f"coupling matrix {k} entry ({i + 1},{j + 1}) is "
                        f"{L[i, j]}, not finite")
                stray = np.argwhere((L != 0.0) & ~coupled)
                if stray.size:
                    i, j = stray[0]
                    raise ModelAssemblyError(
                        f"matrix {k} couples nodes {j + 1}->{i + 1} without an edge")
            # laplacian_stack checks this for the Laplacian form; writing the
            # network needs it too
            if self.graph.tails.size and self.graph.order != self.order:
                raise OrderMismatchError(f"graph carries {self.graph.order} "
                                         f"weights per edge, need {self.order}")
        object.__setattr__(self, "laplacians", mats)

    @classmethod
    def from_graph(cls, graph: WeightedDigraph, actuation, measurement,
                   order: int | None = None) -> "IntegratorNetwork":
        order = graph.order if order is None else order
        return cls(order=order, graph=graph, actuation=tuple(actuation),
                   measurement=tuple(measurement))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def q(self) -> int:
        return len(self.actuation)

    @property
    def m(self) -> int:
        return len(self.measurement)

    @property
    def state_dim(self) -> int:
        return self.order * self.n

    def is_laplacian_form(self) -> bool:
        """True when every coupling matrix has (near-)zero row sums."""
        return all(np.abs(L.sum(axis=1)).max() <= _ROW_SUM_TOL * max(1.0, np.abs(L).max())
                   for L in self.laplacians)

    def input_matrix_block(self) -> np.ndarray:
        Bh = np.zeros((self.n, self.q))
        for j, r in enumerate(self.actuation):
            Bh[r - 1, j] = 1.0
        return Bh

    def state_index(self, nodes=None) -> np.ndarray:
        """order x len(nodes) state indices, default nodes the measurement
        set: entry [k, j] is k*n + nodes[j] - 1, the k-th derivative of
        node nodes[j]."""
        nodes = self.measurement if nodes is None else tuple(nodes)
        return (self.n * np.arange(self.order)[:, None]
                + np.array(nodes, dtype=int) - 1)

    def output_matrix(self, nodes=None) -> np.ndarray:
        """Rows of the d x d identity at state_index(nodes), derivative-major."""
        idx = self.state_index(nodes).ravel()
        C = np.zeros((idx.size, self.state_dim))
        C[np.arange(idx.size), idx] = 1.0
        return C


@dataclass(frozen=True, eq=False)
class FeedbackGain:
    """Real static state-feedback gain; rows are per-actuator gain vectors.

    A matrix with a nonzero imaginary part is rejected rather than
    truncated to its real part."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix)
        if np.iscomplexobj(M) and M.imag.any():
            raise ModelAssemblyError("gain matrix has a nonzero imaginary part")
        M = np.asarray(M.real, dtype=float)
        if not np.isfinite(M).all():
            raise ModelAssemblyError("gain matrix contains non-finite entries")
        object.__setattr__(self, "matrix", M)


def assemble(network: IntegratorNetwork):
    """State-space triple (A, B, C) of the network.

    A carries identity super-diagonal blocks and the negated coupling
    matrices in its bottom block row; B feeds the top derivative only;
    C selects every derivative of the measured nodes (output_matrix).
    """
    n, N = network.n, network.order
    d = network.state_dim
    A = np.zeros((d, d))
    for k in range(N - 1):
        A[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = np.eye(n)
    for k, L in enumerate(network.laplacians):
        A[(N - 1) * n:, k * n:(k + 1) * n] = -L
    B = np.zeros((d, network.q))
    B[(N - 1) * n:, :] = network.input_matrix_block()
    return A, B, network.output_matrix()


def cutset_output(network: IntegratorNetwork, plan: CutsetPlan) -> np.ndarray:
    """Output matrix of the cutset-measurement model (selects Vcut rows)."""
    if plan.n != network.n:
        raise ModelAssemblyError(
            f"plan covers {plan.n} nodes, network has {network.n}")
    return network.output_matrix(plan.vcut)


def closed_loop(A: np.ndarray, B: np.ndarray, F: np.ndarray) -> np.ndarray:
    """A + B F; only the bottom block row of A can change."""
    A = np.asarray(A)
    B = np.asarray(B)
    F = np.asarray(F)
    if A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0] or \
            F.shape != (B.shape[1], A.shape[1]):
        raise ModelAssemblyError(
            f"dimension mismatch: A {A.shape}, B {B.shape}, F {F.shape}")
    return A + B @ F


def network_to_dict(network: IntegratorNetwork) -> dict:
    """Plain-dict form matching the network file schema, written from the
    graph's edge arrays: `edges` holds the 1-based `from` and `to` ids
    and one row of `weights` per derivative order, in edge order.

    The coupling matrices are written under "couplings" only when they
    were given explicitly and differ from the Laplacians of the edge
    weights: per matrix its diagonal, and its entry L[to-1, from-1] for
    each edge in edge order. IntegratorNetwork rejects any other nonzero
    entry, so the two rows hold every matrix exactly.
    """
    g = network.graph
    weights = (g.weights.T.tolist() if g.tails.size
               else [[] for _ in range(network.order)])
    data = {
        "order": network.order,
        "n": network.n,
        "edges": {"from": (g.tails + 1).tolist(), "to": (g.heads + 1).tolist(),
                  "weights": weights},
        "actuation": list(network.actuation),
        "measurement": list(network.measurement),
    }
    if network.explicit_couplings:
        stack = laplacian_stack(g, network.order)
        if not all(np.array_equal(L, S) for L, S in zip(network.laplacians, stack)):
            data["couplings"] = {
                "diagonal": [np.diagonal(L).tolist() for L in network.laplacians],
                "edges": [L[g.heads, g.tails].tolist() for L in network.laplacians]}
    return data


def _malformed(message: str) -> NetworkFileError:
    return NetworkFileError(f"malformed network data: {message}")


def _first_not(types, values):
    """The first of values whose type is not in types, or None. json reads
    integer literals as int and the others as float; bool is neither."""
    if set(map(type, values)) <= types:
        return None
    return next(x for x in values if type(x) not in types)


def _listed_edges(edges: list, order) -> tuple:
    """Ids and (edges x order) weight array of the layout written before
    format /4: one {"from", "to", "weights"} object per edge."""
    us = [e["from"] for e in edges]
    vs = [e["to"] for e in edges]
    wss = [e["weights"] for e in edges]
    _check_ids(us + vs)
    if not set(map(type, wss)) <= {list}:
        i = next(i for i, ws in enumerate(wss) if type(ws) is not list)
        raise _malformed(f"edge ({us[i]},{vs[i]}) weights {wss[i]!r} is not a list")
    _check_weights(wss)
    counts = np.fromiter(map(len, wss), np.intp, len(wss))
    wrong = np.flatnonzero(counts != order)
    if wrong.size:
        i = wrong[0]
        raise NetworkFileError(
            f"edge ({us[i]},{vs[i]}) carries {counts[i]} weights, file order is {order}")
    return us, vs, np.array(wss, dtype=float) if wss else np.zeros((0, 0))


def _columnar_edges(edges: dict, order) -> tuple:
    """Ids and (edges x order) weight array of the columnar layout:
    `from` and `to` id lists and one `weights` row per derivative order."""
    us, vs, rows = list(edges["from"]), list(edges["to"]), edges["weights"]
    if len(us) != len(vs):
        raise _malformed(f"edges have {len(us)} from ids and {len(vs)} to ids")
    _check_ids(us + vs)
    if type(rows) is not list or not set(map(type, rows)) <= {list}:
        raise _malformed("edge weights are not a list of rows")
    _check_weights(rows)
    if len(rows) != order:
        raise NetworkFileError(
            f"edges carry {len(rows)} weight rows, file order is {order}")
    wrong = [k for k, row in enumerate(rows) if len(row) != len(us)]
    if wrong:
        k = wrong[0]
        raise NetworkFileError(
            f"weight row {k} has {len(rows[k])} entries for {len(us)} edges")
    return us, vs, np.array(rows, dtype=float).reshape(order, len(us)).T


def _check_ids(ids: list) -> None:
    bad = _first_not({int}, ids)
    if bad is not None:
        raise _malformed(f"node id {bad!r} is not an integer")


def _check_weights(rows: list) -> None:
    bad = _first_not({int, float}, list(chain.from_iterable(rows)))
    if bad is not None:
        raise _malformed(f"weight {bad!r} is not a number")


def _columnar_couplings(couplings: dict, graph: WeightedDigraph) -> tuple:
    """Dense coupling matrices from their diagonals and edge entries."""
    n, m = graph.n, graph.tails.size
    diagonal = np.array(couplings["diagonal"], dtype=float)
    on_edges = np.array(couplings["edges"], dtype=float)
    if diagonal.ndim != 2 or diagonal.shape[1:] != (n,) or \
            on_edges.shape != (len(diagonal), m):
        raise _malformed(
            f"couplings diagonal {diagonal.shape} and edges {on_edges.shape}, "
            f"expected (k, {n}) and (k, {m})")
    mats = np.zeros((len(diagonal), n, n))
    mats[:, graph.heads, graph.tails] = on_edges
    mats[:, np.arange(n), np.arange(n)] = diagonal
    return tuple(mats)


def network_from_dict(data: dict) -> IntegratorNetwork:
    """Network from the file schema, in either layout: columnar (`edges`
    an object of id and weight rows, `couplings` an object of diagonal
    and edge rows) or the one written before format /4 (one object per
    edge, dense `couplings` matrices). Node ids, n and order must be
    JSON integers and weights JSON numbers; either edge layout becomes
    id lists and a weight array, which WeightedDigraph.from_arrays
    checks once."""
    try:
        order, n = data["order"], data["n"]
        actuation, measurement = list(data["actuation"]), list(data["measurement"])
        edges, couplings = data["edges"], data.get("couplings")
        if couplings is not None and not isinstance(couplings, dict):
            couplings = tuple(np.array(L, dtype=float) for L in couplings)
        for key, value in (("order", order), ("n", n)):
            if type(value) is not int:
                raise _malformed(f"{key} must be an integer, got {value!r}")
        _check_ids(actuation)
        _check_ids(measurement)
        us, vs, weights = (_columnar_edges if isinstance(edges, dict)
                           else _listed_edges)(edges, order)
        graph = WeightedDigraph.from_arrays(n, us, vs, weights)
        if isinstance(couplings, dict):
            couplings = _columnar_couplings(couplings, graph)
    # OverflowError: an integer weight beyond float range
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _malformed(str(exc)) from exc
    return IntegratorNetwork(order=order, graph=graph, actuation=tuple(actuation),
                             measurement=tuple(measurement), laplacians=couplings)


def read_json(path):
    """The parsed content of a JSON file; a file that cannot be read or
    parsed raises NetworkFileError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise NetworkFileError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFileError(f"{path} is not valid JSON: {exc}") from exc


def load_network(path) -> IntegratorNetwork:
    """Read a network file (JSON with order/n/edges/actuation/measurement
    and optional couplings), in either edge layout."""
    return network_from_dict(read_json(path))


def dumps(data: dict) -> str:
    """Single-line JSON with sorted keys and compact separators.

    Without indent json.dumps runs CPython's C encoder. Files written
    with indent=2 before hold the same content and load the same way.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def save_network(network: IntegratorNetwork, path) -> None:
    Path(path).write_text(dumps(network_to_dict(network)))
