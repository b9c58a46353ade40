"""Observability-blocking state feedback for integrator networks.

Synthesizes static gains that hide a selected closed-loop mode from a
set of measured nodes while preserving the open-loop spectrum, with a
vertex-cutset pipeline for sparser actuation and independent
verification oracles.
"""

from .config import DEFAULT_TOLERANCES, DesignOptions, Tolerances
from .cutset import (CutsetDesign, LgCondition, TransferCertificate,
                     design_via_cutset, lg_condition)
from .designer import (BlockingDesign, NullspaceBundle, build_candidate,
                       design_blocking, nullspace_bundle, select_hp)
from .graph import (CutsetPlan, WeightedDigraph, is_strongly_connected,
                    min_vertex_cut)
from .model import (FeedbackGain, IntegratorNetwork, assemble, closed_loop,
                    cutset_output, load_network, save_network)
from .spectrum import SpectralData, check_stacked_structure, decompose
from .verify import (VerificationReport, observability_rank, output_energy,
                     pbh_test, preservation_audit, verify_design)

__version__ = "0.1.0"

__all__ = [
    "BlockingDesign",
    "CutsetDesign",
    "CutsetPlan",
    "DEFAULT_TOLERANCES",
    "DesignOptions",
    "FeedbackGain",
    "IntegratorNetwork",
    "LgCondition",
    "NullspaceBundle",
    "SpectralData",
    "Tolerances",
    "TransferCertificate",
    "VerificationReport",
    "WeightedDigraph",
    "assemble",
    "build_candidate",
    "check_stacked_structure",
    "closed_loop",
    "cutset_output",
    "decompose",
    "design_blocking",
    "design_via_cutset",
    "is_strongly_connected",
    "lg_condition",
    "load_network",
    "min_vertex_cut",
    "nullspace_bundle",
    "observability_rank",
    "output_energy",
    "pbh_test",
    "preservation_audit",
    "save_network",
    "select_hp",
    "verify_design",
]
