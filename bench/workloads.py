"""Seeded instance lists of the three benchmark workloads.

Every instance comes from `obsblock.scenarios` at default tolerances.
The `--seed` of a run shifts every generator seed, so seed 0 gives the
reference composition and other seeds give fresh draws of the same
shapes. No instance is dropped or re-drawn because its design fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from obsblock import scenarios
from obsblock.designer import required_actuators
from obsblock.model import IntegratorNetwork, assemble
from obsblock.spectrum import decompose


@dataclass(frozen=True)
class Instance:
    """One op's input: a network and which pipeline designs for it."""

    ident: str
    network: IntegratorNetwork
    cutset: bool


LADDER = ((25, 2), (50, 2), (100, 2), (34, 3))   # (n, order)


def ladder_direct(seed: int) -> list:
    """Direct designs on a size ladder: n = 25, 50, 100 at order 2 and
    n = 34 at order 3, one undirected overdamped Laplacian and one
    generic network at each size.

    Each rung is drawn twice (seeds s and 1000 + s): verification time
    depends on how fast a draw's closed loop grows, and a second draw
    averages out part of that swing from seed to seed.
    """
    out = []
    for draw in (seed, 1000 + seed):
        for n, order in LADDER:
            density = 6.0 / n
            # an overdamped order-2 spectrum is all real: q = m + 1 suffices
            q = 3 if order == 2 else None
            out.append(Instance(
                f"laplacian n={n} order={order} seed={draw}",
                scenarios.random_network(n, order, density=density, seed=draw,
                                         m=2, q=q, overdamped=True,
                                         undirected=True),
                cutset=False))
            out.append(Instance(
                f"generic n={n} order={order} seed={draw}",
                scenarios.generic_network(n, order, density=density, seed=draw,
                                          m=2),
                cutset=False))
    return out


CUT_SHAPES = (  # (cluster 1, cluster 2, cut size, generic couplings)
    (20, 20, 1, False),
    (40, 40, 2, False),
    (50, 50, 1, False),
    (30, 30, 3, True),
    (45, 45, 2, True),
)


def cutset_bridged(seed: int) -> list:
    """Cutset designs on bridged clusters plus the fig2-din scenario.

    Each cluster shape is drawn twice (seeds s and 1000 + s), for the
    same reason as the ladder rungs.
    """
    out = []
    for draw in (seed, 1000 + seed):
        for n1, n2, cut, generic in CUT_SHAPES:
            kind = "generic" if generic else "laplacian"
            out.append(Instance(
                f"cut_friendly {kind} {n1}+{cut}+{n2} seed={draw}",
                scenarios.cut_friendly_network(n1, n2, order=2, seed=draw,
                                               generic=generic, cut_size=cut),
                cutset=True))
    for k in range(3):
        out.append(Instance(f"fig2_din order=2 seed={3 * seed + k}",
                            scenarios.fig2_din(seed=3 * seed + k, order=2),
                            cutset=True))
    out.append(Instance(f"fig2_din order=3 seed={seed}",
                        scenarios.fig2_din(seed=seed, order=3), cutset=True))
    return out


SMALL_BATCH_OPS = 120


def small_batch(seed: int) -> list:
    """120 direct designs with n in 6..20 and order 2 or 3.

    Families rotate as in the acceptance tests: undirected overdamped
    Laplacian, directed Laplacian twice, generic. Actuation is m + 2,
    cut to the hypothesis minimum m + 1 when the spectrum is all real.
    """
    out = []
    for i in range(SMALL_BATCH_OPS):
        s = 1000 * seed + i
        n = 6 + (7 * i) % 15
        order = 3 if i % 3 == 2 else 2
        m = 1 + (i // 4) % 2
        family = i % 4
        if family == 3:
            kind = "generic"
            net = scenarios.generic_network(n, order, density=0.4, seed=s, m=m)
        else:
            kind = "undirected" if family == 0 else "directed"
            net = scenarios.random_network(n, order, density=0.4, seed=s, m=m,
                                           q=m + 2, overdamped=family == 0,
                                           undirected=family == 0)
            need = required_actuators(m, decompose(assemble(net)[0]).all_real())
            if need < net.q:
                net = IntegratorNetwork.from_graph(
                    net.graph, net.actuation[:need], net.measurement)
        out.append(Instance(f"{kind} n={n} order={order} m={m} seed={s}",
                            net, cutset=False))
    return out


WORKLOADS = {
    "ladder-direct": ladder_direct,
    "cutset-bridged": cutset_bridged,
    "small-batch": small_batch,
}
