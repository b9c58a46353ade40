"""Exercises for the less-traveled designer branches."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from obsblock import designer, records
from obsblock.config import DesignOptions
from obsblock.designer import (assemble_and_gain, build_candidate,
                               design_blocking, nullspace_bundle, select_hp,
                               select_lambda)
from obsblock.errors import (GenerationError, IllConditionedDesignError,
                             InsufficientActuationError, NotAnEigenvalueError,
                             RepairFailureError)
from obsblock.model import assemble, closed_loop
from obsblock.scenarios import generic_network, random_network
from obsblock.spectrum import decompose
from obsblock.verify import pbh_test, verify_design


def test_repair_path_replaces_duplicated_column():
    # doctor the modal data so the step-5 swap cannot keep a basis: a
    # non-target column duplicates another eigenvector, forcing the
    # greedy subset selection and a step-8 draw for the displaced column
    net = random_network(n=8, seed=23, m=1, q=3)
    A, B, _ = assemble(net)
    opts = DesignOptions(seed=23)
    sd = decompose(A, opts.tolerances)
    p = select_lambda(sd, opts)
    reals = sorted((i for i in range(sd.dim)
                    if sd.is_real(i) and sd.pairing[i] == i and i != p),
                   key=lambda i: abs(sd.eigenvalues[i]))
    # copy a small-|lambda| eigenvector into a later greedy slot so the
    # duplicate (not the original) is the column that gets displaced
    dup_from, dup_to = reals[0], reals[-1]
    sd.modal_matrix[:, dup_to] = sd.modal_matrix[:, dup_from]

    bundle = nullspace_bundle(net, sd.eigenvalues[p], net.measurement)
    candidate = build_candidate(bundle, select_hp(bundle))
    design = assemble_and_gain(net, sd, p, candidate, bundle, A, B, opts,
                               net.measurement)
    assert dup_to in design.repaired
    assert design.residuals["spectrum_match"] < 1e-6
    A_cl = closed_loop(A, B, design.F)
    _, _, C = assemble(net)
    assert pbh_test(A_cl, C, design.lambda_p) <= 2 * net.n - 1


def test_conjugate_pair_repair_redraws_both_columns():
    # the pair (12, 13) duplicates the pair (2, 3), which enters the
    # greedy subset first; the repair draws one complex direction for the
    # pair and sets its conjugate on the partner column
    net = random_network(n=8, seed=28, m=1, q=3)
    A, B, C = assemble(net)
    opts = DesignOptions(seed=28)
    sd = decompose(A, opts.tolerances)
    p = select_lambda(sd, opts)
    assert p == 9
    assert (sd.pairing[2], sd.pairing[12]) == (3, 13)
    sd.modal_matrix[:, 12] = sd.modal_matrix[:, 2]
    sd.modal_matrix[:, 13] = sd.modal_matrix[:, 3]

    bundle = nullspace_bundle(net, sd.eigenvalues[p], net.measurement)
    candidate = build_candidate(bundle, select_hp(bundle))
    design = assemble_and_gain(net, sd, p, candidate, bundle, A, B, opts,
                               net.measurement)
    assert design.repaired == (12, 13)
    assert design.residuals["spectrum_match"] < 1e-6
    assert pbh_test(closed_loop(A, B, design.F), C, design.lambda_p) \
        <= 2 * net.n - 1
    assert hashlib.sha256(design.F.tobytes()).hexdigest() == \
        "7f0dfe83e329cc32987a9d63d59d20dbfd6fbc9735d1634dc80bce985efdc314"


def test_snapped_pair_left_out_of_the_subset_is_redrawn_as_a_pair(monkeypatch):
    # the snapped pair (12, 13) at lambda = 0 is the first greedy unit;
    # with column 12 a copy of the kept candidate column the pair is left
    # out, and the repair draws one complex direction for the pair and
    # sets its conjugate on the partner column
    net = random_network(n=7, seed=1, m=1, q=3, density=0.4)
    A, B, C = assemble(net)
    opts = DesignOptions(seed=1)
    sd = decompose(A, opts.tolerances)
    p = select_lambda(sd, opts)
    assert p == 3
    assert sd.is_vector_paired(12) and sd.pairing[12] == 13
    bundle = nullspace_bundle(net, sd.eigenvalues[p], net.measurement)
    candidate = build_candidate(bundle, select_hp(bundle))
    sd.modal_matrix[:, 12] = candidate[0]

    # the swapped V does not realify (column 12 is real but paired), so
    # step 5 falls back to the rank of V itself; the last V realified is
    # the repaired one
    seen = {}
    realify = designer._realify

    def spy(V, Z, pairing):
        seen.setdefault("calls", []).append(V.copy())
        return realify(V, Z, pairing)

    monkeypatch.setattr(designer, "_realify", spy)
    design = assemble_and_gain(net, sd, p, candidate, bundle, A, B, opts,
                               net.measurement)
    assert design.repaired == (12, 13)
    assert len(seen["calls"]) == 2
    with pytest.raises(IllConditionedDesignError):
        realify(seen["calls"][0], np.zeros((3, 14)), sd.pairing)
    V = seen["calls"][-1]
    assert np.array_equal(V[:, 13], V[:, 12].conj())
    assert np.abs(V[:, 12].imag).max() > 0.1
    assert np.isrealobj(design.F)
    assert design.residuals["spectrum_match"] < 1e-6
    assert pbh_test(closed_loop(A, B, design.F), C, design.lambda_p) \
        <= 2 * net.n - 1
    assert hashlib.sha256(design.F.tobytes()).hexdigest() == \
        "5694d87def32b3e3cdeb1489c172e84c2e5d9198dca17a67f0007944b5224c57"


def test_snapped_pair_draws_an_independent_second_column():
    # column 12 is a real eigenvalue with a complex eigenvector paired to
    # column 13; the second column is a real draw from the same null space
    net = random_network(n=7, order=2, seed=1, m=1, q=3, density=0.4)
    design = design_blocking(net, DesignOptions(
        seed=1, lambda_selection=("index", 12)))
    assert design.replaced == (12, 13)
    assert verify_design(design).verdict
    record = records.dumps(records.design_to_dict(design))
    assert hashlib.sha256(record.encode()).hexdigest() == \
        "a1047fc09d098a1ae0c97749397434f6caea4e760278812fd7660c7123276f96"
    # the same content written with indent=2, as records were before
    indented = json.dumps(json.loads(record), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == \
        "d97254cd1e5de6eb956d32f1a3be1f7a91bf618ebba7fa0bf02f1cb329c8655d"


def test_snapped_pair_at_zero_fails_on_a_balanced_graph():
    net = random_network(n=6, seed=0, m=1, q=3, density=0.4,
                         undirected=True, overdamped=True)
    with pytest.raises(RepairFailureError) as info:
        design_blocking(net, DesignOptions(seed=0,
                                           lambda_selection=("index", 10)))
    assert str(info.value) == (
        "no independent second direction for the snapped defective pair at "
        "7.07736e-17+0j (structural for weight-balanced graphs at lambda = 0)")
    assert info.value.rank_gap == 0


def test_explicit_zero_lambda_succeeds_on_unbalanced_digraph():
    # directed, weight-unbalanced graphs leave the lambda = 0 null space
    # outside the eigenvector span, so the zero design goes through and
    # the record carries the nonzero-wording flag
    for seed in range(40):
        net = random_network(n=7, seed=seed, m=1, q=3, density=0.45)
        try:
            design = design_blocking(net, DesignOptions(
                seed=seed, lambda_selection=("value", 0.0 + 0j)))
        except Exception:
            continue
        assert abs(design.lambda_p) < 1e-5
        assert any("zero eigenvalue" in w for w in design.warnings)
        assert design.residuals["zero_pattern"] < 1e-8
        assert design.residuals["spectrum_match"] < 1e-6
        break
    else:
        pytest.fail("no directed instance admitted the zero-eigenvalue design")


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("family", ["directed", "generic"])
def test_one_actuator_below_paper_count_verifies_with_a_warning(family, m):
    # q = m + 1 on complex spectra: the paper's count m + 2 is sufficient,
    # not necessary, and the m x (m + 1) constraint block always has a
    # null direction, so each design goes through, verifies from its
    # record and carries the shortfall as a warning
    build = random_network if family == "directed" else generic_network
    for seed in range(10):
        net = build(10, 2, density=0.4, seed=seed, m=m, q=m + 1)
        design = design_blocking(net, DesignOptions(seed=seed))
        assert not decompose(assemble(net)[0]).all_real(), seed
        assert any(f"hypothesis needs {m + 2}" in w for w in design.warnings), seed
        loaded = records.design_from_dict(
            json.loads(records.dumps(records.design_to_dict(design))))
        report = verify_design(loaded)
        assert report.verdict, (seed, report.reasons)


def test_q_equal_m_fails_by_rank_nullity():
    # the count below the paper's is only a warning; the failure comes
    # from the constraint block: an m x m block generically has no null space
    net = random_network(n=7, seed=2, m=2, q=2)
    with pytest.raises(InsufficientActuationError,
                       match="constraint block has trivial null space"):
        design_blocking(net, DesignOptions(seed=2))


def test_lambda_index_out_of_range():
    net = random_network(n=6, seed=1, m=1, q=3)
    with pytest.raises(NotAnEigenvalueError):
        design_blocking(net, DesignOptions(seed=1,
                                           lambda_selection=("index", 99)))


def test_generation_retry_budget():
    with pytest.raises(GenerationError):
        random_network(n=30, seed=0, density=0.01, max_tries=3)


def test_cli_n6_variant(tmp_path):
    from obsblock.cli import main
    from obsblock.model import save_network
    net = random_network(n=8, seed=10, m=1, q=3)
    net_file = tmp_path / "net.json"
    save_network(net, net_file)
    assert main(["design", "--input", str(net_file), "--variant", "n6",
                 "--seed", "10"]) == 0
