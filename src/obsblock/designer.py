"""Observability-blocking gain synthesis by modal replacement.

Pipeline per design: take the open-loop modal data, pick a target
eigenvalue, build a replacement eigenvector with zeroed measurement
entries from the null space of [A - lambda*I, B], restore modal
independence if the swap broke it, and recover the gain from F = Z V^-1
evaluated in a realified modal basis.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
from scipy.linalg import lapack

from .config import DesignOptions, Tolerances
from .errors import (ControllabilityError, DegenerateCandidateError,
                     IllConditionedDesignError, InsufficientActuationError,
                     InvalidInputError, NoEligibleEigenvalueError,
                     NotAnEigenvalueError, RepairFailureError)
from .model import FeedbackGain, IntegratorNetwork, assemble
from .spectrum import (SpectralData, closed_loop_audit, decompose,
                       match_eigenvalue, numerical_rank, phase_rotation,
                       rank_cutoff)

_EPS = np.finfo(float).eps
_REPAIR_DRAWS = 50      # seeded null-space draws per column before giving up


@dataclass(eq=False)
class NullspaceBundle:
    """Null-space data of [A - lambda*I, B] partitioned for one design.

    full is an orthonormal basis of the null space; n1/n2 are its
    state/input row blocks. state_rows holds the state indices of the
    measured nodes, one row per derivative order
    (IntegratorNetwork.state_index). The constraint block n4 is their
    position rows: a null vector stacks as [v; lambda v; ...], so h
    with n4 h = 0 zeroes every derivative entry of the measured nodes.
    """

    full: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    state_rows: np.ndarray

    @property
    def q(self) -> int:
        return self.full.shape[1]

    @property
    def n4(self) -> np.ndarray:
        return self.n1[self.state_rows[0], :]


@dataclass(eq=False)
class BlockingDesign:
    """Complete record of one synthesized blocking design: replaced holds
    lambda_p's column first, repaired the columns the repair redrew."""

    lambda_p: complex
    v_hat: np.ndarray
    gain: FeedbackGain
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

    @property
    def lambda_index(self) -> int:
        """The open-loop modal column of lambda_p."""
        return self.replaced[0]

    @property
    def preserved(self) -> tuple:
        """Ascending modal columns neither replaced nor repaired."""
        changed = set(self.replaced) | set(self.repaired)
        return tuple(i for i in range(self.network.state_dim) if i not in changed)


def _null_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis; canonical basis for a zero matrix."""
    rows, cols = M.shape
    if rows == 0 or not M.any():
        return np.eye(cols, dtype=M.dtype)
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


def check_controllability(network: IntegratorNetwork, sd: SpectralData) -> None:
    """PBH test at every open-loop eigenvalue; raises on rank deficiency.

    Conjugate eigenvalues share a verdict, so each conjugate pair of the
    eigensolver is checked once, at its leading column; each copy of a
    repeated eigenvalue is checked on its own. Each check runs on the
    companion pencil (see companion_pencil), which is rank deficient when
    its smallest singular value is at most Tolerances.rank_decision times
    its largest. The designer never calls it: the construction needs the
    rank only at lambda_p and the repaired eigenvalues, where
    nullspace_bundle tests it. fig2_din draws controllable networks with it.
    """
    for i in sd.leading:
        lam = sd.eigenvalues[i]
        pencil = companion_pencil(network, lam)
        if numerical_rank(pencil, Tolerances.rank_decision) < network.n:
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


def select_hp(bundle: NullspaceBundle) -> np.ndarray:
    """Direction in the constraint-block null space, unit norm.

    Among null directions of N4 the one maximizing ||N1 h|| is taken;
    exact ties fall back to the earliest canonical coordinate. A real
    bundle gives an h with no imaginary part. The measured entries of
    v_hat are checked once, by the design's zero_pattern postcondition.
    """
    block = bundle.n4
    K = _null_basis(block)
    if K.shape[1] == 0:
        raise InsufficientActuationError(
            f"constraint block has trivial null space (q = {bundle.q}, "
            f"m = {bundle.state_rows.shape[1]}); more actuation nodes are required")
    M = bundle.n1 @ K
    _, sv, Vh = la.svd(M)
    if sv[0] <= max(M.shape) * _EPS:
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
    return h / np.linalg.norm(h)


def build_candidate(bundle: NullspaceBundle, h: np.ndarray):
    """Replacement eigenvector and input direction (v_hat, z_p) from h.

    v_hat is normalized to unit length and put in decompose's canonical
    phase (spectrum.phase_rotation); z is scaled consistently so
    (A - lambda I) v_hat + B z stays zero. The bundle of a real lambda is
    real, so there the phase is a sign and the imaginary parts of v_hat
    and z are exactly zero.
    """
    v_hat = bundle.n1 @ h
    z = bundle.n2 @ h
    nrm = np.linalg.norm(v_hat)
    if nrm <= max(bundle.n1.shape) * _EPS:
        raise DegenerateCandidateError("candidate eigenvector is numerically zero")
    real = np.isrealobj(bundle.full)
    phase = phase_rotation(v_hat[:, None], real)[0] / nrm
    v_hat, z = v_hat * phase, z * phase
    if real:
        # the products' imaginary parts are signed zeros
        v_hat, z = v_hat.real + 0j, z.real + 0j
    return v_hat, z


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
        unit = (i,) if j == i else tuple(sorted((i, j)))
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
                    "at lambda = 0)")
            _, V[:, partner], Z[:, partner] = drawn
            pairing[p] = p
            pairing[partner] = partner

    failed = []     # units the greedy subset leaves out, in greedy order
    # Step 5: does the plain swap keep a basis? The realified modal matrix
    # decides, and its singular values give cond_V too; a V that does not
    # realify, or realifies rank deficient, goes to the greedy subset
    try:
        Vr, Zr = _realify(V, Z, pairing)
        sv = la.svdvals(Vr)
    except IllConditionedDesignError:
        sv = None
    if sv is None or not (sv > rank_cutoff(sv[0], Vr.shape, None)).all():
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
                    f"independence repair failed at eigenvalue {lam_k:.6g}")
            M, v, z = drawn
            V[:, unit[0]], Z[:, unit[0]] = v, z
            if len(unit) == 2:
                V[:, unit[1]], Z[:, unit[1]] = v.conj(), z.conj()
        sv = None
    if sv is None:
        Vr, Zr = _realify(V, Z, pairing)
        sv = la.svdvals(Vr)

    cond_V = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond_V > Tolerances.cond_limit:
        raise IllConditionedDesignError(
            f"modal matrix condition number {cond_V:.3e} exceeds "
            f"{Tolerances.cond_limit:g}")
    F = la.solve(Vr.T, Zr.T).T
    F -= la.solve(Vr.T, (F @ Vr - Zr).T).T       # one refinement step
    gain = FeedbackGain(matrix=F)

    repaired = tuple(i for unit in failed for i in unit)
    preserved = [i for i in range(d) if i not in replaced and i not in repaired]
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
    _enforce_postconditions(residuals, options.tolerances)
    return BlockingDesign(
        lambda_p=complex(lam_p), v_hat=v_hat, gain=gain, repaired=repaired,
        replaced=tuple(replaced), cond_V=cond_V, residuals=residuals,
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
    runs in real arithmetic and F is real by construction. A self-paired
    column is exactly real: decompose makes the raw-real eigenvectors
    real, and the replacement and repair columns of a real eigenvalue
    come from a real null space. Raises IllConditionedDesignError on a
    pair with a vanishing real or imaginary part.
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
        if j == i:
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


def _zero_screen(sd: SpectralData) -> float:
    return Tolerances.lambda_match * max(1.0, sd.matrix_norm)


def candidates(sd: SpectralData):
    """Lazily yield the usable modal columns in default-walk order.

    The order is real eigenvalues by (|lambda|, index), then upper-half
    conjugate pairs by (|lambda|, index). A candidate is usable when it
    is nonzero, it is not a snapped pair and its cluster of overlapping
    perturbation disks is one eigenvalue: all within lambda_match *
    max(1, |lambda|), as a lone disk or the copies of a repeated
    eigenvalue are and a scattered Jordan chain is not.
    """
    screen = _zero_screen(sd)
    mu = sd.raw_eigenvalues
    walk = sorted((i for i in range(sd.dim) if sd.eigenvalues[i].imag >= 0),
                  key=lambda i: (sd.eigenvalues[i].imag > 0,
                                 abs(sd.eigenvalues[i]), i))
    for i in walk:
        if abs(sd.eigenvalues[i]) > screen and not sd.is_vector_paired(i):
            spread = np.abs(mu[sd.cluster == sd.cluster[i]] - mu[i]).max()
            if spread <= Tolerances.lambda_match * max(1.0, abs(mu[i])):
                yield i


def select_lambda(sd: SpectralData, options: DesignOptions) -> int:
    """Resolve the lambda-selection policy to a modal column index.

    The default policy takes the first of `candidates`; explicit
    index/value overrides skip its screens.
    """
    sel = options.lambda_selection

    if isinstance(sel, tuple) and len(sel) == 2 and sel[0] == "index":
        try:
            p = operator.index(sel[1])
        except TypeError:
            raise InvalidInputError(f"bad lambda selection {sel!r}: "
                                    "the index is not an integer") from None
        if not 0 <= p < sd.dim:
            raise NotAnEigenvalueError(f"eigenvalue index {p} outside 0..{sd.dim - 1}")
    elif isinstance(sel, tuple) and len(sel) == 2 and sel[0] == "value":
        p = match_eigenvalue(sd, complex(sel[1]))
        if p < 0:
            raise NotAnEigenvalueError(
                f"{complex(sel[1]):.6g} is not an open-loop eigenvalue "
                f"(match tolerance {Tolerances.lambda_match:g} relative)")
    elif sel == "default":
        p = next(candidates(sd), None)
        if p is None:
            raise NoEligibleEigenvalueError(
                "no usable eigenvalue satisfies the selection policy")
    else:
        raise InvalidInputError(f"bad lambda selection {sel!r}")
    return p


def required_actuators(m: int, spectrum_all_real: bool) -> int:
    """The paper's sufficient actuation count: m+2, or m+1 with an
    all-real spectrum. A design below it only carries a warning."""
    return m + 1 if spectrum_all_real else m + 2


def design_blocking(network: IntegratorNetwork,
                    options: DesignOptions = DesignOptions(),
                    measured_nodes=None, precomputed=None) -> BlockingDesign:
    """End-to-end blocking design against the network's measurement set.

    measured_nodes overrides the constraint set (the cutset pipeline
    passes the cut nodes). `precomputed` may carry (A, B, sd) to avoid
    repeating the decomposition.

    Only lambda_p's column and the repaired ones change, so (A, B) need
    be controllable only at those eigenvalues: nullspace_bundle raises
    ControllabilityError there, and no global PBH sweep runs. Otherwise
    raises the specific precondition error (lambda selection, no null
    direction in the constraint block) or a numerical error from the
    replacement steps.
    """
    measured_nodes = tuple(measured_nodes if measured_nodes is not None
                           else network.measurement)
    if not measured_nodes:
        raise InvalidInputError("no measured nodes to block")
    if precomputed is None:
        A, B, _ = assemble(network)
        sd = decompose(A)
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

    p = select_lambda(sd, options)
    lam_p = sd.eigenvalues[p]
    if abs(lam_p) <= _zero_screen(sd):
        # the theorem statement asks for a nonzero eigenvalue, so the
        # record carries a flag
        warnings.append("design targets the zero eigenvalue, outside the "
                        "nonzero-eigenvalue wording of the design guarantee")
    bundle = nullspace_bundle(network, lam_p, measured_nodes)
    h = select_hp(bundle)
    candidate = build_candidate(bundle, h)
    design = assemble_and_gain(network, sd, p, candidate, bundle, A, B,
                               options, measured_nodes)
    if warnings:
        design.warnings = tuple(warnings)
    return design
