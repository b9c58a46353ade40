"""Observability-blocking gain synthesis by modal replacement.

Pipeline per design: take the open-loop modal data, pick a target
eigenvalue, build a replacement eigenvector with zeroed measurement
entries from the null space of [A - lambda*I, B], restore modal
independence if the swap broke it, and recover the gain from F = Z V^-1
evaluated in a realified modal basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
from scipy.linalg import lapack

from .config import (DEFAULT_TOLERANCES, DesignOptions, Tolerances,
                     VARIANT_DERIVATIVE, VARIANT_POSITION)
from .errors import (ControllabilityError, DegenerateCandidateError,
                     IllConditionedDesignError, InsufficientActuationError,
                     InvalidInputError, NoEligibleEigenvalueError,
                     NotAnEigenvalueError, RepairFailureError)
from .model import FeedbackGain, IntegratorNetwork, assemble
from .spectrum import (SpectralData, closed_loop_audit, components, decompose,
                       match_eigenvalue, numerical_rank, rank_cutoff)

_EPS = np.finfo(float).eps
_REPAIR_DRAWS = 50      # seeded null-space draws per column before giving up


@dataclass
class NullspaceBundle:
    """Null-space data of [A - lambda*I, B] partitioned for one design.

    full is an orthonormal basis of the null space; n1/n2 are its
    state/input row blocks. state_rows holds the state indices of the
    measured nodes, one row per derivative order
    (IntegratorNetwork.state_index), so both the position variant
    (order 0) and the derivative variant (order N-1) can carve out
    their constraint block.
    """

    full: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    state_rows: np.ndarray

    @property
    def q(self) -> int:
        return self.full.shape[1]

    def meas_rows(self, k: int) -> np.ndarray:
        return self.n1[self.state_rows[k], :]

    # N=2 names from the construction: N4 holds the measured rows of the
    # position block, N6 those of the top-derivative block.
    @property
    def n4(self) -> np.ndarray:
        return self.meas_rows(0)

    @property
    def n6(self) -> np.ndarray:
        return self.meas_rows(-1)


@dataclass
class BlockingDesign:
    """Complete record of one synthesized blocking design."""

    lambda_p: complex
    lambda_index: int
    variant: str
    v_hat: np.ndarray
    gain: FeedbackGain
    preserved: tuple
    repaired: tuple
    replaced: tuple
    cond_V: float
    residuals: dict
    measured_nodes: tuple
    network: IntegratorNetwork
    warnings: tuple = field(default_factory=tuple)

    @property
    def F(self) -> np.ndarray:
        return self.gain.matrix


def _null_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis; canonical basis for a zero matrix."""
    rows, cols = M.shape
    if rows == 0 or not M.any():
        return np.eye(cols, dtype=complex)
    # LAPACK's divide-and-conquer SVD without the wrappers' checks: on
    # the small pencils of a batch the wrappers cost as much as the SVD
    gesdd = lapack.zgesdd if np.iscomplexobj(M) else lapack.dgesdd
    _, sv, Vh, info = gesdd(M, full_matrices=1)
    if info != 0:
        raise la.LinAlgError(f"SVD did not converge (gesdd info {info})")
    r = int((sv > rank_cutoff(sv[0], M.shape, None)).sum())
    return Vh[r:, :].conj().T


def companion_pencil(network: IntegratorNetwork, lam) -> np.ndarray:
    """The n x (n+q) matrix [P(lambda), Bhat] of the companion form.

    P(lambda) = lambda^N I + sum_k lambda^k L_k. Eliminating the identity
    blocks of A gives rank [A - lambda I, B] = (N-1) n + rank [P(lambda), Bhat],
    so the PBH test at lambda can run on this matrix instead of the
    d x (d+q) one. The matrix is real for a real lambda.
    """
    s = lam.real if lam.imag == 0.0 else lam
    P = np.eye(network.n)
    for L in reversed(network.laplacians):     # Horner in lambda
        P = s * P + L
    return np.hstack([P, network.input_matrix_block()])


def _conjugate_classes(eigenvalues, tol: Tolerances) -> np.ndarray:
    """First column of each conjugate class, in column order: a column
    within lambda_match of an earlier class's first column (compared in
    the upper half plane) shares that class's verdict."""
    up = eigenvalues.real + 1j * np.abs(eigenvalues.imag)
    near = np.tril(np.abs(up[:, None] - up[None, :])
                   <= tol.lambda_match * np.maximum(1.0, np.abs(up))[None, :], -1)
    first = np.ones(up.size, dtype=bool)
    for i in np.flatnonzero(near.any(axis=1)):
        first[i] = not (near[i] & first).any()
    return np.flatnonzero(first)


def pbh_screen(network: IntegratorNetwork, sd: SpectralData,
               tol: Tolerances = DEFAULT_TOLERANCES):
    """Certify PBH classes controllable from the modal data, with no SVD.

    Returns (classes, bound, cutoff). classes holds the first column of
    each conjugate class, in the order check_controllability walks them;
    bound[k] is a lower bound on the smallest singular value of the
    companion pencil [P(z), Bhat] at z = eigenvalues[classes[k]], and
    cutoff[k] a value above which the pencil's own rank test cannot come
    out deficient. bound > cutoff certifies the class; any other class
    is undecided, never uncontrollable.

    Derivation, with w and v the unit left and right eigenvectors of z:

    * Companion to state. For a unit x in C^n, Horner's rule for P gives
      y^* = x^* [Q_0(z), ..., Q_{N-2}(z), I] with Q_{N-2} = zI + L_{N-1}
      and Q_{k-1} = z Q_k + L_k, and y^* [A - zI, B] =
      [-x^* P(z), 0, ..., 0, x^* Bhat]. As ||y|| >= 1,
      sigma_min([P(z), Bhat]) >= sigma_min([A - zI, B]).
    * State bound. Let M = A - zI, rho = ||w^* M|| (the left residual) and
      M' = M - w w^* M, so w^* M' = 0 and, by Weyl, the singular values
      of M' and [M', B] are within rho of those of M and [M, B]. Split a
      unit u = alpha w + r with r orthogonal to w and t = ||r||. Then
      ||u^* M'|| >= s t for s <= sigma_{d-1}(M'), and ||u^* B|| >=
      |alpha| b - t c with b = ||w^* B|| and c = ||B||. Both are entries of
      G = [[0, s], [b, -c]] applied to the unit vector (|alpha|, t) (where
      the second is negative, s t exceeds its value where the second
      vanishes), and sigma_min(G) is at least |det G| / ||G||_F:
      sigma_min([M, B]) >= b s / sqrt(b^2 + c^2 + s^2) - rho.
    * s. For x orthogonal to v, x^* = x^* (A - zI) S(z) with the reduced
      resolvent S(z) = sum_{j != i} v_j w_j^* / (w_j^* v_j (lambda_j - z)),
      so sigma_{d-1}(M') >= 1 / ||S(z)|| - rho. The triangle inequality
      bounds ||S(z)|| by sum_j kappa_j / |lambda_j - z|, with
      kappa_j = 1 / |w_j^* v_j|.
    * Clusters. Eigenvalue j is known to its first-order perturbation disk
      of radius kappa_j eta_j, eta_j the larger of its right and left
      residuals, and its distance to z shrinks by that radius. Eigenvalues
      whose disks overlap form a cluster. Its eigenvectors are each
      ill-determined (the structural zero Jordan chain of a Laplacian
      network has kappa near 1e7 and more), but its block of S(z),
      V_C diag(1 / (w_j^* v_j (lambda_j - z))) W_C^*, is not: its norm is
      that of R_V diag(...) R_W^* for the QR factors of V_C and W_C. A
      class inside a cluster gets bound 0 and always goes to the pencil.
    * Cutoff. sigma_max([P(z), Bhat]) <= sbar = |z|^N
      + sum_k |z|^k ||L_k||_F + ||Bhat||. Forming P(z) by Horner and the
      SVD move its singular values by at most
      delta = (2N + n + q) eps sbar, so the rank test at rank_decision
      reports full rank once the exact sigma_min exceeds
      cutoff = rank_decision sbar + (1 + rank_decision) delta.

    The lambda_j are the eigensolver's raw eigenvalues and z is the
    (snapped) eigenvalue the pencil runs at; the eigen-data enter at face
    value, and their residuals are the slack.
    """
    n, N, q = network.n, network.order, network.q
    V, W = sd.modal_matrix, sd.left_modal_matrix
    mu = sd.raw_eigenvalues
    classes = _conjugate_classes(sd.eigenvalues, tol)
    z = sd.eigenvalues[classes]

    # A V and A^T W from the companion blocks: identity above the
    # diagonal, -L_k in the last block row
    stack = np.hstack(network.laplacians)
    AV = np.vstack([V[n:], -stack @ V])
    ATW = -stack.T @ W[-n:]
    ATW[n:] += W[:-n]
    eta = np.maximum(np.linalg.norm(AV - V * mu, axis=0),
                     np.linalg.norm(ATW - W * mu.conj(), axis=0))
    gram = (W.conj() * V).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = 1.0 / np.abs(gram)
        radius = np.where(np.isfinite(kappa), kappa * eta, np.inf)
    overlap = np.abs(mu[:, None] - mu[None, :]) <= radius[:, None] + radius[None, :]
    label = components(overlap)
    size = np.bincount(label)
    single = size[label] == 1

    # ||S(z)|| per singleton class: triangle sum over singletons, exact
    # block norm per cluster
    cand = np.flatnonzero(single[classes])
    i, zc = classes[cand], z[cand]
    others = single[None, :] & (np.arange(sd.dim)[None, :] != i[:, None])
    gap = np.abs(mu[None, :] - zc[:, None]) - radius[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        resolvent = np.where(others, np.where(gap > 0, kappa / gap, np.inf),
                             0.0).sum(axis=1)
    for c in np.flatnonzero(size > 1):
        C = np.flatnonzero(label == c)
        if not np.isfinite(kappa[C]).all():
            resolvent[:] = np.inf      # no eigenbasis: nothing to certify
            break
        RV = np.linalg.qr(V[:, C], mode="r")
        RW = np.linalg.qr(W[:, C], mode="r")
        scale = 1.0 / (gram[C][None, :] * (mu[C][None, :] - zc[:, None]))
        block = (RV[None] * scale[:, None, :]) @ RW.conj().T
        resolvent += np.linalg.norm(block, 2, axis=(1, 2))

    b = np.linalg.norm(W[-n:][np.array(network.actuation, dtype=int) - 1][:, i],
                       axis=0)
    # Bhat has one unit column per actuator: ||Bhat||^2 is the largest
    # number of actuators on one node
    c2 = float(np.bincount(network.actuation).max()) if q else 0.0
    rho = np.linalg.norm(ATW[:, i] - W[:, i] * zc.conj(), axis=0)
    with np.errstate(divide="ignore"):
        s = 1.0 / resolvent - rho
    bound = np.zeros(classes.size)
    ok = s > 0
    bound[cand[ok]] = (b[ok] / np.sqrt(1.0 + (b[ok] ** 2 + c2) / s[ok] ** 2)
                       - rho[ok])

    mag = np.abs(z)
    sbar = (mag ** N + sum(mag ** k * la.norm(L) for k, L in
                           enumerate(network.laplacians))
            + np.sqrt(c2))
    delta = (2 * N + n + q) * _EPS * sbar
    cutoff = tol.rank_decision * sbar + (1.0 + tol.rank_decision) * delta
    return classes, bound, cutoff


def check_controllability(network: IntegratorNetwork, sd: SpectralData,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> None:
    """PBH test at every distinct eigenvalue; raises on rank deficiency.

    Conjugate eigenvalues share a verdict, so each conjugate class is
    checked once, at its first member in column order. pbh_screen
    certifies most classes from the left and right eigenvectors of `sd`;
    the rest run on the companion pencil (see companion_pencil), in the
    same order, and are rank deficient when its smallest singular value
    is at most tol.rank_decision times its largest. The screen only
    skips classes the pencil would pass, so the verdict and the
    eigenvalue named on failure are those of the pencil sweep alone.
    """
    classes, bound, cutoff = pbh_screen(network, sd, tol)
    for i in classes[bound <= cutoff]:
        lam = sd.eigenvalues[i]
        if numerical_rank(companion_pencil(network, lam), tol.rank_decision) < network.n:
            raise ControllabilityError(
                f"(A, B) uncontrollable at eigenvalue {lam:.6g}")


def nullspace_bundle(network: IntegratorNetwork, lam,
                     measured_nodes) -> NullspaceBundle:
    """Null space of [A - lambda*I, B] with the design row partition.

    Every null vector stacks as [v; lambda v; ...; lambda^(N-1) v; u]
    with P(lambda) v = Bhat u (see companion_pencil), and its squared
    norm is c ||v||^2 + ||u||^2 with c = sum_k |lambda|^(2k). So the
    orthonormal null basis of the n x (n+q) pencil [P(lambda)/sqrt(c), Bhat],
    lifted with v = (its state rows)/sqrt(c) and u = -(its input rows),
    is an orthonormal basis of the d-dimensional problem; it is real for
    a real lambda. Raises ControllabilityError when the null-space
    dimension differs from q, which is exactly the PBH rank condition
    at lambda.
    """
    n, q = network.n, network.q
    if q < 1:
        raise InsufficientActuationError("need at least one actuation node")
    mag = abs(complex(lam))
    root_c = math.sqrt(sum(mag ** (2 * k) for k in range(network.order)))
    pencil = companion_pencil(network, lam)
    pencil[:, :n] /= root_c
    kernel = _null_basis(pencil)
    if kernel.shape[1] != q:
        raise ControllabilityError(
            f"null space of [A - lambda I, B] has dimension {kernel.shape[1]}, "
            f"expected q = {q}; (A, B) is not controllable at {lam:.6g}")
    s = lam.real if lam.imag == 0.0 else lam
    d = network.state_dim
    basis = np.empty((d + q, q), dtype=kernel.dtype)
    basis[:n] = kernel[:n] / root_c
    for k in range(n, d, n):
        basis[k:k + n] = s * basis[k - n:k]
    basis[d:] = -kernel[n:]
    return NullspaceBundle(full=basis, n1=basis[:d], n2=basis[d:],
                           state_rows=network.state_index(measured_nodes))


def select_hp(bundle: NullspaceBundle, variant: str = VARIANT_POSITION) -> np.ndarray:
    """Direction in the constraint-block null space, unit norm.

    Among null directions of N4 (or N6 for the derivative variant) the
    one maximizing ||N1 h|| is taken; exact ties fall back to the
    earliest canonical coordinate.
    """
    if variant == VARIANT_POSITION:
        block = bundle.n4
    elif variant == VARIANT_DERIVATIVE:
        block = bundle.n6
    else:
        raise InvalidInputError(f"unknown variant {variant!r}")
    K = _null_basis(block)
    if K.shape[1] == 0:
        raise InsufficientActuationError(
            f"constraint block has trivial null space (q = {bundle.q}, "
            f"m = {bundle.state_rows.shape[1]}); more actuation nodes are required")
    M = bundle.n1 @ K
    _, sv, Vh = la.svd(M)
    if sv.size == 0 or sv[0] <= max(M.shape) * _EPS:
        raise DegenerateCandidateError(
            "every admissible direction yields a zero replacement eigenvector")
    tied = np.flatnonzero(sv >= sv[0] * (1.0 - 1e-9))
    if tied.size > 1:
        W = Vh[tied, :].conj().T          # orthonormal in coefficient space
        Q = K @ W
        # Q has orthonormal columns, so some e_j projects onto it
        for j in range(bundle.q):
            proj = Q @ (Q.conj().T @ np.eye(bundle.q, dtype=complex)[:, j])
            if np.linalg.norm(proj) > 1e-12:
                h = proj / np.linalg.norm(proj)
                break
    else:
        h = K @ Vh[0].conj()
    resid = np.abs(block @ h).max() if block.size else 0.0
    if resid > 1e-10:
        raise DegenerateCandidateError(
            f"constraint residual {resid:.3e} exceeds 1e-10")
    return h / np.linalg.norm(h)


def build_candidate(bundle: NullspaceBundle, h: np.ndarray):
    """Replacement eigenvector and input direction (v_hat, z_p) from h.

    v_hat is normalized to unit length and phase-canonicalized; z is
    scaled consistently so (A - lambda I) v_hat + B z stays zero.
    """
    v_hat = bundle.n1 @ h
    z = bundle.n2 @ h
    nrm = np.linalg.norm(v_hat)
    if nrm <= max(bundle.n1.shape) * _EPS:
        raise DegenerateCandidateError("candidate eigenvector is numerically zero")
    mags = np.abs(v_hat)
    idx = int(np.argmax(mags > 1e-8 * mags.max()))
    phase = np.exp(-1j * np.angle(v_hat[idx])) / nrm
    return v_hat * phase, z * phase


def _draw_columns(rng, bundle: NullspaceBundle, M: np.ndarray, width: int,
                  real: bool):
    """Seeded draws from the null space of [A - lambda I, B] until one
    extends M to full column rank.

    A draw h gives the unit column v = N1 h / ||N1 h|| (followed by its
    conjugate when width is 2) and the input direction z = N2 h / ||N1 h||.
    Returns (the extended M, v, z), or None after _REPAIR_DRAWS draws.
    """
    d = M.shape[0]
    q = bundle.q
    for _ in range(_REPAIR_DRAWS):
        h = rng.standard_normal(q) + (0.0 if real else 1j * rng.standard_normal(q))
        v = bundle.n1 @ h
        nn = np.linalg.norm(v)
        if nn <= d * _EPS:
            continue
        v = v / nn
        trial = np.column_stack([M, v, v.conj()][:width + 1])
        if numerical_rank(trial) == M.shape[1] + width:
            return trial, v, bundle.n2 @ h / nn
    return None


def _greedy_units(sd: SpectralData, targets):
    """Column units (singles / conjugate pairs) ordered by ascending |lambda|."""
    units = []
    seen = set(targets)
    order = sorted(range(sd.dim),
                   key=lambda i: (abs(sd.eigenvalues[i]), sd.eigenvalues[i].real,
                                  sd.eigenvalues[i].imag, i))
    for i in order:
        if i in seen:
            continue
        j = int(sd.pairing[i])
        unit = (i,) if j == i or j in seen else tuple(sorted((i, j)))
        units.append(unit)
        seen.update(unit)
    return units


def assemble_and_gain(network: IntegratorNetwork, sd: SpectralData, p: int,
                      candidate, bundle: NullspaceBundle, A, B,
                      options: DesignOptions, measured_nodes) -> BlockingDesign:
    """Modal replacement steps: swap, independence repair, gain recovery.

    `candidate` is the (v_hat, z) pair for column p; the conjugate
    column is handled automatically for complex targets, and a snapped
    defective pair consumes a second seeded draw. The modal matrices
    (V, Z) stay local: F and the network determine them.
    """
    tol = options.tolerances
    d = sd.dim
    q = B.shape[1]
    v_hat, z_p = candidate
    lam_p = sd.eigenvalues[p]
    partner = int(sd.pairing[p])

    V = sd.modal_matrix.astype(complex).copy()
    Z = np.zeros((q, d), dtype=complex)
    pairing = sd.pairing.copy()

    replaced = [p]
    V[:, p] = v_hat
    Z[:, p] = z_p
    rng = np.random.default_rng(np.random.SeedSequence([options.seed, p, 0xB10C]))

    if partner != p:
        replaced.append(partner)
        if lam_p.imag != 0.0:
            V[:, partner] = v_hat.conj()
            Z[:, partner] = z_p.conj()
        else:
            # snapped defective pair at a real eigenvalue: second column is a
            # fresh draw from the same null space, accepted on independence
            drawn = _draw_columns(rng, bundle, np.delete(V, partner, axis=1), 1,
                                  real=True)
            if drawn is None:
                raise RepairFailureError(
                    "no independent second direction for the snapped defective "
                    f"pair at {lam_p:.6g} (structural for weight-balanced graphs "
                    "at lambda = 0)",
                    rank_gap=d - numerical_rank(V))
            _, V[:, partner], Z[:, partner] = drawn
            pairing[p] = p
            pairing[partner] = partner

    failed = []     # units the greedy subset leaves out, in greedy order
    # Step 5: does the plain swap keep a basis? The realified modal matrix
    # decides, and its singular values give cond_V too; a V that does not
    # realify, or realifies rank deficient, is judged on V itself
    try:
        Vr, Zr = _realify(V, Z, pairing)
        sv = la.svdvals(Vr)
    except IllConditionedDesignError:
        sv = None
    if ((sv is not None and (sv > rank_cutoff(sv[0], Vr.shape, None)).all())
            or numerical_rank(V) == d):
        preserved = [i for i in range(d) if i not in replaced]
    else:
        # Steps 7-9: greedy self-conjugate independent subset, candidates
        # first; every unit left out is redrawn, in ascending index order
        kept = list(replaced)
        M = V[:, kept]
        for unit in _greedy_units(sd, replaced):
            trial = np.hstack([M, V[:, list(unit)]])
            if numerical_rank(trial) == len(kept) + len(unit):
                kept.extend(unit)
                M = trial
            else:
                failed.append(unit)
        preserved = [i for i in kept if i not in replaced]
        bundles = {}
        for unit in sorted(failed):
            lam_k = sd.eigenvalues[unit[0]]
            bk = bundles.get(complex(lam_k))
            if bk is None:
                bk = nullspace_bundle(network, lam_k, measured_nodes)
                bundles[complex(lam_k)] = bk
            drawn = _draw_columns(rng, bk, M, len(unit),
                                  real=lam_k.imag == 0.0 and len(unit) == 1)
            if drawn is None:
                raise RepairFailureError(
                    f"independence repair failed at eigenvalue {lam_k:.6g}",
                    rank_gap=d - numerical_rank(M))
            M, v, z = drawn
            V[:, unit[0]], Z[:, unit[0]] = v, z
            if len(unit) == 2:
                V[:, unit[1]], Z[:, unit[1]] = v.conj(), z.conj()
        sv = None
    if sv is None:
        Vr, Zr = _realify(V, Z, pairing)
        sv = la.svdvals(Vr)

    F, cond_V = _real_gain(Vr, Zr, sv, tol)
    if cond_V > tol.cond_limit:
        raise IllConditionedDesignError(
            f"modal matrix condition number {cond_V:.3e} exceeds {tol.cond_limit:g}")
    gain = FeedbackGain(matrix=F)

    A_cl = A + B @ F
    spec_err, pres_res = closed_loop_audit(sd, A_cl, preserved)
    scale = max(1.0, sd.matrix_norm)
    measured = v_hat[network.state_index(measured_nodes).ravel()]
    residuals = {
        "candidate": float(np.linalg.norm(A_cl @ v_hat - lam_p * v_hat) / scale),
        "preserved_max": max(pres_res, default=0.0),
        "preserved": pres_res,
        "spectrum_match": spec_err,
        "zero_pattern": float(max((abs(x) for x in measured), default=0.0)),
    }
    _enforce_postconditions(residuals, tol)
    return BlockingDesign(
        lambda_p=complex(lam_p), lambda_index=p, variant=options.variant,
        v_hat=v_hat, gain=gain,
        preserved=tuple(preserved),
        repaired=tuple(i for unit in failed for i in unit),
        replaced=tuple(replaced), cond_V=float(cond_V), residuals=residuals,
        measured_nodes=tuple(measured_nodes), network=network)


def _enforce_postconditions(residuals, tol: Tolerances) -> None:
    """A returned design must satisfy its own invariants; a modal matrix
    that slipped past the independence check with a structural
    near-dependency shows up here as a blown-up residual."""
    checks = (
        ("candidate", tol.candidate_residual, "closed-loop eigenpair residual"),
        ("preserved_max", tol.preserved_residual, "preserved eigenvector residual"),
        ("spectrum_match", tol.spectrum_match, "eigenvalue multiset deviation"),
        ("zero_pattern", tol.zero_pattern, "measured-entry magnitude"),
    )
    for key, budget, label in checks:
        if residuals[key] > budget:
            raise IllConditionedDesignError(
                f"{label} {residuals[key]:.3e} exceeds {budget:g}")


def _realify(V, Z, pairing):
    """The realified modal basis (Vr, Zr) of F = Z V^-1.

    Each exact conjugate pair (v, v_bar) is replaced by its normalized
    real and imaginary parts with Z transformed identically; column
    scaling and intra-pair mixing leave Z V^-1 unchanged, so the solve
    runs in real arithmetic and F is real by construction. Raises
    IllConditionedDesignError on a complex column without a conjugate
    partner or a pair with a vanishing real or imaginary part.
    """
    d = V.shape[0]
    Vr = np.zeros((d, d))
    Zr = np.zeros((Z.shape[0], d))
    done = set()
    for i in range(d):
        if i in done:
            continue
        j = int(pairing[i])
        col = V[:, i]
        if j == i or j in done:
            imax = np.abs(col.imag).max()
            if imax > 1e-7 * max(np.abs(col.real).max(), 1e-300):
                raise IllConditionedDesignError(
                    f"column {i} is complex ({imax:.2e}) but has no conjugate partner")
            nn = np.linalg.norm(col.real)
            Vr[:, i] = col.real / nn
            Zr[:, i] = Z[:, i].real / nn
            done.add(i)
        else:
            re, im = col.real, col.imag
            n_re, n_im = np.linalg.norm(re), np.linalg.norm(im)
            if n_re <= d * _EPS or n_im <= d * _EPS:
                raise IllConditionedDesignError(
                    "degenerate conjugate pair in the modal matrix")
            Vr[:, i] = re / n_re
            Vr[:, j] = im / n_im
            Zr[:, i] = Z[:, i].real / n_re
            Zr[:, j] = Z[:, i].imag / n_im
            done.update((i, j))
    return Vr, Zr


def _real_gain(Vr, Zr, sv, tol: Tolerances):
    """F = Zr Vr^-1 and cond_V from the singular values sv of Vr.

    F is zero when cond_V exceeds tol.cond_limit; the caller rejects
    the design on cond_V.
    """
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > tol.cond_limit:
        return np.zeros_like(Zr), cond
    F = la.solve(Vr.T, Zr.T).T
    F -= la.solve(Vr.T, (F @ Vr - Zr).T).T       # one refinement step
    return F, cond


def _zero_screen(sd: SpectralData, tol: Tolerances) -> float:
    return tol.lambda_match * max(1.0, sd.matrix_norm)


def select_lambda(sd: SpectralData, options: DesignOptions,
                  eligible=None) -> int:
    """Resolve the lambda-selection policy to a modal column index.

    Default policy: the first usable candidate in the order real
    eigenvalues by (|lambda|, index), then upper-half conjugate pairs by
    (|lambda|, index). A candidate is usable when it is nonzero, its
    cluster is non-defective, it is not a snapped pair and it passes
    `eligible` when given; `eligible` is called only until the first
    usable candidate is found. Explicit index/value overrides skip
    these screens.
    """
    tol = options.tolerances
    sel = options.lambda_selection
    screen = _zero_screen(sd, tol)

    if isinstance(sel, tuple) and len(sel) == 2 and sel[0] == "index":
        p = int(sel[1])
        if not 0 <= p < sd.dim:
            raise NotAnEigenvalueError(f"eigenvalue index {p} outside 0..{sd.dim - 1}")
    elif isinstance(sel, tuple) and len(sel) == 2 and sel[0] == "value":
        p = match_eigenvalue(sd, complex(sel[1]), tol)
        if p < 0:
            raise NotAnEigenvalueError(
                f"{complex(sel[1]):.6g} is not an open-loop eigenvalue "
                f"(match tolerance {tol.lambda_match:g} relative)")
    elif sel == "default":
        def usable(i):
            if sd.defective[i] or abs(sd.eigenvalues[i]) <= screen:
                return False
            if sd.is_vector_paired(i):
                return False
            return eligible is None or eligible(sd.eigenvalues[i], i)

        walk = sorted((i for i in range(sd.dim) if sd.eigenvalues[i].imag >= 0),
                      key=lambda i: (sd.eigenvalues[i].imag > 0,
                                     abs(sd.eigenvalues[i]), i))
        p = next((i for i in walk if usable(i)), None)
        if p is None:
            raise NoEligibleEigenvalueError(
                "no non-defective eigenvalue satisfies the selection policy")
    else:
        raise InvalidInputError(f"bad lambda selection {sel!r}")

    if options.variant == VARIANT_DERIVATIVE and abs(sd.eigenvalues[p]) <= screen:
        raise InvalidInputError(
            "the measure-derivative variant requires a nonzero eigenvalue")
    return p


def required_actuators(m: int, spectrum_all_real: bool) -> int:
    """The paper's sufficient actuation count: m+2, or m+1 with an
    all-real spectrum. A design below it only carries a warning."""
    return m + 1 if spectrum_all_real else m + 2


def design_blocking(network: IntegratorNetwork,
                    options: DesignOptions = DesignOptions(),
                    measured_nodes=None, eligible=None,
                    precomputed=None) -> BlockingDesign:
    """End-to-end blocking design against the network's measurement set.

    measured_nodes overrides the constraint set (the cutset pipeline
    passes the cut nodes); `eligible` filters default eigenvalue
    selection. `precomputed` may carry (A, B, sd) to avoid repeating
    the decomposition.

    Raises the specific precondition error (controllability, lambda
    selection, no null direction in the constraint block) or a
    numerical error from the replacement steps.
    """
    tol = options.tolerances
    measured_nodes = tuple(measured_nodes if measured_nodes is not None
                           else network.measurement)
    if not measured_nodes:
        raise InvalidInputError("no measured nodes to block")
    if precomputed is None:
        A, B, _ = assemble(network)
        sd = decompose(A, tol)
    else:
        A, B, sd = precomputed

    warnings = []
    need = required_actuators(len(measured_nodes), sd.all_real())
    if network.q < need:
        # the paper's count is sufficient, not necessary: select_hp
        # fails when the constraint block really has no null direction
        warnings.append(f"q = {network.q} actuators but the hypothesis needs {need} "
                        f"(m = {len(measured_nodes)}, spectrum "
                        f"{'all real' if sd.all_real() else 'has complex pairs'})")

    check_controllability(network, sd, tol)

    p = select_lambda(sd, options, eligible=eligible)
    lam_p = sd.eigenvalues[p]
    if abs(lam_p) <= _zero_screen(sd, tol):
        # permitted under the position variant only; the theorem statement
        # asks for a nonzero eigenvalue, so the record carries a flag
        warnings.append("design targets the zero eigenvalue; allowed for the "
                        "measure-position variant but outside the nonzero-"
                        "eigenvalue wording of the design guarantee")
    bundle = nullspace_bundle(network, lam_p, measured_nodes)
    h = select_hp(bundle, options.variant)
    candidate = build_candidate(bundle, h)
    design = assemble_and_gain(network, sd, p, candidate, bundle, A, B,
                               options, measured_nodes)
    if warnings:
        design.warnings = tuple(warnings)
    return design
