"""Command-line surface: gen, cut, design, verify, repro.

Exit codes: 0 success, 2 precondition failure, 3 numerical failure,
4 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import records
from .config import DesignOptions, Tolerances
from .cutset import CutsetDesign, design_via_cutset
from .designer import design_blocking
from .errors import EXIT_NUMERICAL, InvalidInputError, ObsBlockError
from .graph import min_vertex_cut
from .model import assemble, cutset_output, load_network, save_network
from .scenarios import SCENARIOS, fig2_din, random_network
from .spectrum import check_stacked_structure, decompose
from .verify import verify_design


def _parse_lambda(text: str):
    if text == "default":
        return "default"
    kind, _, arg = text.partition(":")
    parts = arg.split(",")
    try:
        if kind == "index":
            return ("index", int(arg))
        if kind == "value" and len(parts) <= 2:
            return ("value", complex(*map(float, parts)))
    except ValueError:
        pass
    raise InvalidInputError(
        f"bad --lambda {text!r}; use default, index:<k> or value:<re>[,<im>]")


def _tolerances(args, spectrum_match: float | None = None) -> Tolerances:
    """Package tolerances, with --tol-spec, else spectrum_match, as spectrum budget."""
    spec = spectrum_match if args.tol_spec is None else args.tol_spec
    return Tolerances() if spec is None else Tolerances(spectrum_match=spec)


def _options(args) -> DesignOptions:
    return DesignOptions(
        lambda_selection=_parse_lambda(args.lam),
        seed=args.seed,
        tolerances=_tolerances(args),
    )


def _emit(text: str, output):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _audit(design, tol: Tolerances, seed: int):
    """Run verify_design on a direct design or a cutset result's design.

    verify_design's default C is the base measurement set, so a cutset
    design is audited on its transfer claim.
    """
    if isinstance(design, CutsetDesign):
        design = design.design
    return verify_design(design, tol=tol, rng=np.random.default_rng(seed))


def cmd_gen(args) -> int:
    net = random_network(n=args.n, order=args.order, density=args.density,
                         seed=args.seed, m=args.m, q=args.q)
    save_network(net, args.output)
    print(f"wrote network n={net.n} order={net.order} q={net.q} m={net.m} "
          f"to {args.output}")
    return 0


def cmd_cut(args) -> int:
    net = load_network(args.input)
    plan = min_vertex_cut(net.graph, net.actuation, net.measurement)
    Ct = cutset_output(net, plan)
    lines = [
        f"vertex cutset of {args.input}",
        f"V1   = {list(plan.v1)}",
        f"Vcut = {list(plan.vcut)}",
        f"V2   = {list(plan.v2)}",
        f"permutation = {list(plan.permutation)}",
        f"|Vcut| = {len(plan.vcut)} (m = {net.m})",
        f"cutset output matrix shape: {Ct.shape[0]}x{Ct.shape[1]}",
        "",
    ]
    _emit("\n".join(lines), args.output)
    return 0


def cmd_design(args) -> int:
    net = load_network(args.input)
    options = _options(args)
    if args.cutset:
        design = design_via_cutset(net, options=options)
    else:
        design = design_blocking(net, options)
    verification = _audit(design, options.tolerances, args.seed)
    if args.output:
        records.save_design(design, args.output)
    sys.stdout.write(records.report_text(design, verification))
    if not verification.verdict:
        print("design failed verification", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    design = records.load_design(args.input)
    verification = _audit(design, tol, args.seed)
    payload = records.dumps(records.verification_to_dict(verification))
    if args.output:
        Path(args.output).write_text(payload)
    sys.stdout.write(records.report_text(design, verification))
    if not verification.verdict:
        print("verification failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


def cmd_repro(args) -> int:
    # structural zero cluster of an order-3 chain shifts the raw
    # spectrum comparison to the eigensolver's cube-root noise floor
    tol = _tolerances(args, 1e-4 if args.order == 3 else None)
    net = fig2_din(seed=args.seed, order=args.order)
    options = DesignOptions(seed=args.seed, tolerances=tol)
    design = design_via_cutset(net, options=options)
    verification = _audit(design, tol, args.seed)

    N = net.order
    cert = design.certificate
    blocked_nodes = sorted(set(cert.plan.vcut) | set(cert.plan.v2))
    worst = max(design.design.residuals["zero_pattern"], cert.far_zero_pattern)
    structure = check_stacked_structure(decompose(assemble(net)[0]), net.n, N)

    lines = [records.report_text(design, verification)]
    lines.append(f"scenario {args.scenario} (order {N}, seed {args.seed})")
    lines.append(f"blocked nodes {blocked_nodes}: worst eigenvector magnitude "
                 f"{worst:.3e} (tolerance {tol.zero_pattern:g})")
    lines.append(f"open-loop stacked-structure deviation: {structure:.3e}")
    lines.append(f"repro verdict: {'pass' if verification.verdict else 'fail'}")
    lines.append("")
    _emit("\n".join(lines), args.output)
    return 0 if verification.verdict else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsblock",
        description="Observability-blocking feedback synthesis for "
                    "integrator networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_design_flags=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol-spec", type=float, default=None,
                       help="spectrum tolerance (verifier quotient, designer multiset)")
        if with_design_flags:
            p.add_argument("--lambda", dest="lam", default="default",
                           help="default | index:<k> | value:<re>[,<im>]")

    p = sub.add_parser("gen", help="generate a random network file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cut", help="compute the separating vertex cutset")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("design", help="synthesize a blocking gain")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="design record path")
    p.add_argument("--cutset", action="store_true",
                   help="design against the separating cutset")
    add_common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("verify", help="re-run the oracles on a design record")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="verification JSON path")
    add_common(p, with_design_flags=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("repro", help="reproduce a bundled scenario")
    p.add_argument("scenario", choices=SCENARIOS)
    p.add_argument("--order", type=int, choices=[2, 3], default=2)
    p.add_argument("--output", default=None)
    add_common(p, with_design_flags=False)
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise InvalidInputError(f"--seed {args.seed} is negative")
        return args.func(args)
    except ObsBlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
