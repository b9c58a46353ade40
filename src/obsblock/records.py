"""Design and verification records: JSON files and text reports.

Files carry full-precision values (shortest round-trip float repr) and
are byte-stable for a fixed seed: keys are sorted and nothing
time-dependent is written.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .cutset import CutsetDesign, LgCondition, TransferCertificate
from .designer import BlockingDesign
from .errors import NetworkFileError
from .graph import CutsetPlan
# assemble and decompose go unused since loading stopped decomposing, but
# bench/tracer.py wraps these module bindings
from .model import FeedbackGain, _first_not, assemble, network_from_dict, network_to_dict
from .spectrum import decompose
from .verify import VerificationReport

FORMAT = "obsblock-design/3"
# /1 records also carried the designer's modal matrices (h_p, z_p, V, Z),
# and /1 and /2 records a gain realness residual that was always 0.0;
# they load through the same path and those keys are ignored.
READ_FORMATS = ("obsblock-design/1", "obsblock-design/2", FORMAT)


def _carray(a) -> dict:
    a = np.asarray(a)
    return {"real": np.real(a).tolist(), "imag": np.imag(a).tolist()}


def _from_carray(data) -> np.ndarray:
    return np.asarray(data["real"], dtype=float) + 1j * np.asarray(
        data["imag"], dtype=float)


def _complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def design_to_dict(design) -> dict:
    """Serializable structure for a BlockingDesign or CutsetDesign."""
    certificate = None
    if isinstance(design, CutsetDesign):
        certificate = _certificate_to_dict(design.certificate)
        design = design.design
    data = {
        "format": FORMAT,
        "network": network_to_dict(design.network),
        "variant": design.variant,
        "lambda_p": _complex(design.lambda_p),
        "lambda_index": design.lambda_index,
        "v_hat": _carray(design.v_hat),
        "F": np.asarray(design.F).tolist(),
        "preserved": list(design.preserved),
        "repaired": list(design.repaired),
        "replaced": list(design.replaced),
        "cond_V": design.cond_V,
        "residuals": {k: (list(v) if isinstance(v, (list, tuple)) else v)
                      for k, v in design.residuals.items()},
        "measured_nodes": list(design.measured_nodes),
        "warnings": list(design.warnings),
    }
    if certificate is not None:
        data["cutset"] = certificate
    return data


def _certificate_to_dict(cert: TransferCertificate) -> dict:
    cond = cert.condition
    return {
        "plan": {
            "v1": list(cert.plan.v1),
            "vcut": list(cert.plan.vcut),
            "v2": list(cert.plan.v2),
            "permutation": list(cert.plan.permutation),
        },
        "lg": {
            "lambda_p": _complex(cond.lambda_p),
            "eigenvalues": _carray(cond.lg_eigenvalues),
            "satisfied": cond.satisfied,
            "margin": None if np.isinf(cond.margin) else cond.margin,
            "tolerance": cond.tolerance,
        },
        "cut_zero_pattern": cert.cut_zero_pattern,
        "far_zero_pattern": cert.far_zero_pattern,
        "base_output_infnorm": cert.base_output_infnorm,
        "derivative_relation_residual": cert.derivative_relation_residual,
    }


def design_from_dict(data: dict):
    """Rebuild a design record; index fields must be JSON integers. Nothing
    is recomputed: verification reads only F, v_hat, lambda_p and the network."""
    if data.get("format") not in READ_FORMATS:
        raise NetworkFileError(f"not a design record (format {data.get('format')!r})")
    try:
        network = network_from_dict(data["network"])
        F = np.asarray(data["F"], dtype=float)
        v_hat = _from_carray(data["v_hat"])
        if not (np.isfinite(F).all() and np.isfinite(v_hat).all()):
            raise NetworkFileError("malformed design record: non-finite F or v_hat")
        design = BlockingDesign(
            lambda_p=complex(*data["lambda_p"]),
            lambda_index=data["lambda_index"],
            variant=data["variant"],
            v_hat=v_hat,
            gain=FeedbackGain(matrix=F),
            preserved=tuple(data["preserved"]),
            repaired=tuple(data["repaired"]),
            replaced=tuple(data["replaced"]),
            cond_V=float(data["cond_V"]),
            residuals=dict(data["residuals"]),
            measured_nodes=tuple(data["measured_nodes"]),
            network=network,
            warnings=tuple(data.get("warnings", ())),
        )
        cert = _certificate_from_dict(data["cutset"]) if "cutset" in data else None
    except (KeyError, TypeError, ValueError) as exc:
        raise NetworkFileError(f"malformed design record: {exc}") from exc
    d = network.n * network.order
    if design.v_hat.shape != (d,) or design.F.shape != (network.q, d):
        raise NetworkFileError(
            f"malformed design record: v_hat has shape {design.v_hat.shape} and "
            f"F {design.F.shape}, expected ({d},) and ({network.q}, {d})")
    fields = [("lambda_index", (design.lambda_index,), 0, d - 1),
              ("preserved", design.preserved, 0, d - 1),
              ("repaired", design.repaired, 0, d - 1),
              ("replaced", design.replaced, 0, d - 1),
              ("measured_nodes", design.measured_nodes, 1, network.n)]
    if cert is not None:
        fields += [(key, getattr(cert.plan, key), 1, network.n)
                   for key in ("v1", "vcut", "v2", "permutation")]
    for key, values, low, high in fields:
        bad = _first_not({int}, values)
        if bad is not None:
            raise NetworkFileError(
                f"malformed design record: {key} value {bad!r} is not an integer")
        if not all(low <= i <= high for i in values):
            raise NetworkFileError(f"malformed design record: {key} "
                                   f"{list(values)} outside {low}..{high}")
    return design if cert is None else CutsetDesign(design=design, certificate=cert)


def _certificate_from_dict(c: dict) -> TransferCertificate:
    plan = CutsetPlan(v1=tuple(c["plan"]["v1"]), vcut=tuple(c["plan"]["vcut"]),
                      v2=tuple(c["plan"]["v2"]),
                      permutation=tuple(c["plan"]["permutation"]))
    margin = c["lg"]["margin"]
    cond = LgCondition(
        lambda_p=complex(*c["lg"]["lambda_p"]),
        lg_eigenvalues=_from_carray(c["lg"]["eigenvalues"]),
        satisfied=bool(c["lg"]["satisfied"]),
        margin=np.inf if margin is None else float(margin),
        tolerance=float(c["lg"]["tolerance"]),
    )
    return TransferCertificate(
        plan=plan, condition=cond,
        cut_zero_pattern=float(c["cut_zero_pattern"]),
        far_zero_pattern=float(c["far_zero_pattern"]),
        base_output_infnorm=float(c["base_output_infnorm"]),
        derivative_relation_residual=float(c["derivative_relation_residual"]))


def save_design(design, path) -> None:
    Path(path).write_text(dumps(design_to_dict(design)))


def load_design(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise NetworkFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFileError(f"{path} is not valid JSON: {exc}") from exc
    return design_from_dict(data)


def verification_to_dict(report: VerificationReport) -> dict:
    """The report's fields by name, the verdict as "pass" or "fail"."""
    data = dataclasses.asdict(report)
    data["verdict"] = "pass" if report.verdict else "fail"
    return data


def dumps(data: dict) -> str:
    """Single-line JSON with sorted keys and compact separators.

    Without indent json.dumps runs CPython's C encoder. Records written
    with indent=2 before hold the same content and load the same way.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _sig4(x) -> str:
    if isinstance(x, complex):
        if x.imag == 0:
            return _sig4(x.real)
        return f"{x.real:.4g}{x.imag:+.4g}j"
    if x is None or (isinstance(x, float) and np.isinf(x)):
        return "inf"
    return f"{x:.4g}"


def report_text(design, verification: VerificationReport | None = None) -> str:
    """Human-readable summary with 4-significant-figure tables."""
    certificate = None
    if isinstance(design, CutsetDesign):
        certificate = design.certificate
        design = design.design
    net = design.network
    lines = []
    push = lines.append
    push("observability blocking design")
    push("=" * 29)
    push(f"network: n={net.n} order={net.order} q={net.q} "
         f"actuation={list(net.actuation)} measurement={list(net.measurement)}")
    push(f"measured (constraint) nodes: {list(design.measured_nodes)}")
    push(f"variant: {design.variant}")
    push(f"lambda_p: {_sig4(design.lambda_p)}  (column {design.lambda_index})")
    push(f"modal condition number: {_sig4(design.cond_V)}")
    push(f"preserved eigenvectors: {len(design.preserved)} of {net.state_dim}")
    push(f"repaired columns: {list(design.repaired) or 'none'}")
    for w in design.warnings:
        push(f"warning: {w}")
    push("")
    push("residuals")
    push("-" * 9)
    r = design.residuals
    push(f"candidate eigenpair     {_sig4(r['candidate'])}")
    push(f"preserved (worst)       {_sig4(r['preserved_max'])}")
    push(f"spectrum multiset       {_sig4(r['spectrum_match'])}")
    push(f"measured-entry pattern  {_sig4(r['zero_pattern'])}")
    if certificate is not None:
        push("")
        push("cutset transfer certificate")
        push("-" * 27)
        plan = certificate.plan
        push(f"V1={list(plan.v1)}")
        push(f"Vcut={list(plan.vcut)}")
        push(f"V2={list(plan.v2)}")
        cond = certificate.condition
        push(f"L_g margin: {_sig4(cond.margin)} (tolerance {_sig4(cond.tolerance)}, "
             f"{'satisfied' if cond.satisfied else 'violated'})")
        push(f"zero pattern on cut:  {_sig4(certificate.cut_zero_pattern)}")
        push(f"zero pattern on V2:   {_sig4(certificate.far_zero_pattern)}")
        push(f"base-output infnorm:  {_sig4(certificate.base_output_infnorm)}")
        push("eigenvector magnitude per blocked node (columns = derivative order):")
        blocked = sorted(set(plan.vcut) | set(plan.v2))
        for r, entries in zip(blocked, design.v_hat[net.state_index(blocked)].T):
            push(f"  node {r:>3}: " + " ".join(f"{abs(x):.4g}" for x in entries))
    push("")
    push("gain matrix (4 s.f.; rows = actuation nodes)")
    push("-" * 44)
    for r_id, row in zip(net.actuation, np.asarray(design.F)):
        push(f"node {r_id:>3}: " + " ".join(f"{x: .4g}" for x in row))
    if verification is not None:
        push("")
        push("verification")
        push("-" * 12)
        push(f"PBH rank at lambda_p:   {verification.pbh_rank_at_lambda} "
             f"of {verification.full_state_dim}")
        push(f"observability rank:     {verification.obs_matrix_rank} "
             f"of {verification.full_state_dim}")
        push(f"gain rank:              {verification.gain_rank}")
        push(f"invariance residual:    {_sig4(verification.invariance_residual)}")
        push(f"quotient spectrum err:  {_sig4(verification.spectrum_match_error)}")
        push(f"blocked output energy:  {_sig4(verification.output_energy)} "
             f"(bound {_sig4(verification.blocked_energy_bound)})")
        push(f"random  output energy:  {_sig4(verification.random_output_energy)}")
        push(f"verdict: {'pass' if verification.verdict else 'fail'}")
        for reason in verification.reasons:
            push(f"  - {reason}")
    push("")
    return "\n".join(lines)
