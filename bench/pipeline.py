"""One benchmark op: what a command-line user does for one network.

An op designs (directly, or through `min_vertex_cut` then
`design_via_cutset`), writes the design record in memory, reads it back
and runs `verify_design` on the loaded record. Cutset designs are
verified against the base measurement set. Library calls go through
module attributes so the traced run can wrap them.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from obsblock import cutset, designer, graph, model, records, verify
from obsblock.config import DesignOptions
from obsblock.errors import EXIT_NUMERICAL, EXIT_PRECONDITION, ObsBlockError

OPTIONS = DesignOptions()          # the CLI defaults: variant n4, seed 0
TOL = OPTIONS.tolerances

_TYPED = {EXIT_PRECONDITION: "rejected", EXIT_NUMERICAL: "numerical"}


@dataclass
class OpResult:
    ident: str
    outcome: str
    message: str
    design_s: float        # design plus record write
    verify_s: float        # record load plus verify_design
    record: bytes | None
    loaded: object | None  # the BlockingDesign read back from the record
    report: object | None  # its VerificationReport

    @property
    def op_s(self) -> float:
        return self.design_s + self.verify_s

    def fingerprint(self) -> bytes:
        """Record bytes, or the outcome and message when there is none."""
        if self.record is not None:
            return self.record
        return f"{self.outcome}: {self.message}\n".encode()


def write_record(design) -> bytes:
    return records.dumps(records.design_to_dict(design)).encode()


def read_record(data: bytes):
    return records.design_from_dict(json.loads(data))


def run_op(inst) -> OpResult:
    """Run one op and classify it; typed errors and crashes are outcomes."""
    net = inst.network
    record = inner = report = None
    t0 = perf_counter()
    t1 = None
    try:
        if inst.cutset:
            plan = graph.min_vertex_cut(net.graph, net.actuation, net.measurement)
            design = cutset.design_via_cutset(net, plan, OPTIONS)
        else:
            design = designer.design_blocking(net, OPTIONS)
        record = write_record(design)
        t1 = perf_counter()
        loaded = read_record(record)
        inner = loaded.design if inst.cutset else loaded
        C = model.assemble(inner.network)[2] if inst.cutset else None
        report = verify.verify_design(inner, C=C, tol=TOL,
                                      rng=np.random.default_rng(OPTIONS.seed))
        outcome = "verified" if report.verdict else "unverified"
        message = "; ".join(report.reasons)
    except ObsBlockError as exc:
        outcome = _TYPED.get(exc.exit_code, "crash")
        message = f"{type(exc).__name__} (exit {exc.exit_code}): {exc}"
    except Exception as exc:  # noqa: BLE001 - a crash is counted, not fatal
        outcome = "crash"
        message = "".join(traceback.format_exception_only(exc)).strip()
    t2 = perf_counter()
    t1 = t2 if t1 is None else t1
    return OpResult(ident=inst.ident, outcome=outcome, message=message,
                    design_s=t1 - t0, verify_s=t2 - t1, record=record,
                    loaded=inner, report=report)
