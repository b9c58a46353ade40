from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.linalg as la

from obsblock.config import DEFAULT_TOLERANCES, DesignOptions
from obsblock.cutset import design_via_cutset
from obsblock.designer import design_blocking
from obsblock.graph import WeightedDigraph
from obsblock.model import IntegratorNetwork, assemble, closed_loop
from obsblock.scenarios import (cut_friendly_network, fig2_din, generic_network,
                                random_network)
from obsblock.spectrum import closed_loop_audit, decompose, numerical_rank
from obsblock import records, spectrum, verify
from obsblock.verify import (observability_rank, output_energy, pbh_test,
                             preservation_audit, step_propagator, verify_design)


class TestPbh:
    def test_identity_output_always_full(self, rng):
        A = rng.standard_normal((6, 6))
        for lam in la.eigvals(A):
            assert pbh_test(A, np.eye(6), lam) == 6

    def test_blocked_design_rank_deficient(self):
        net = random_network(n=8, seed=1, m=2, q=4)
        design = design_blocking(net, DesignOptions(seed=1))
        A, B, C = assemble(net)
        A_cl = closed_loop(A, B, design.F)
        assert pbh_test(A_cl, C, design.lambda_p) <= 15

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_observability_matrix_oracle(self, seed):
        # non-defective generic instances: aggregated PBH verdict must
        # match the dark-mode count's verdict, open and closed loop
        net = generic_network(n=6, seed=seed, m=1, q=3)
        A, B, C = assemble(net)
        sd = decompose(A)
        assert not sd.defective.any()
        d = 2 * net.n

        def pbh_unobservable(M):
            return any(pbh_test(M, C, lam) < d for lam in la.eigvals(M))

        assert pbh_unobservable(A) == (observability_rank(A, C) < d)
        design = design_blocking(net, DesignOptions(seed=seed))
        A_cl = closed_loop(A, B, design.F)
        assert pbh_unobservable(A_cl)
        assert observability_rank(A_cl, C) < d

    @pytest.mark.parametrize("seed", range(4))
    def test_real_lambda_runs_in_real_arithmetic(self, seed, monkeypatch):
        # the real matrix gives the rank of the complex one it replaces
        net = random_network(n=8, seed=seed, m=1, q=3, undirected=True,
                             overdamped=True)
        design = design_blocking(net, DesignOptions(seed=seed))
        assert complex(design.lambda_p).imag == 0.0
        A, B, C = assemble(net)
        A_cl = closed_loop(A, B, design.F)
        lam = design.lambda_p
        M = np.vstack([A_cl - complex(lam) * np.eye(A.shape[0]), C + 0j])
        seen = []

        def spy(M, rtol=None):
            seen.append(M.dtype)
            return numerical_rank(M, rtol)

        monkeypatch.setattr(verify, "numerical_rank", spy)
        rank = pbh_test(A_cl, C, lam)
        assert seen == [np.float64]
        assert rank == numerical_rank(M, DEFAULT_TOLERANCES.rank_decision) < A.shape[0]
        pbh_test(A_cl, C, 0.5 + 1j)
        assert seen[-1] == np.complex128


class TestObservabilityRank:
    def test_identity_output(self, rng):
        A = rng.standard_normal((5, 5))
        assert observability_rank(A, np.eye(5)) == 5

    def test_single_node_position_measurement(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        C = np.array([[1.0, 0.0]])
        assert observability_rank(A, C) == 2

    def test_complex_pair_blocking_drops_two(self):
        net = generic_network(n=7, seed=11, m=1, q=3)
        sd = decompose(assemble(net)[0])
        pairs = [i for i in range(sd.dim) if sd.eigenvalues[i].imag > 0]
        design = design_blocking(
            net, DesignOptions(seed=11, lambda_selection=("index", pairs[0])))
        A, B, C = assemble(net)
        A_cl = closed_loop(A, B, design.F)
        assert observability_rank(A_cl, C) <= 2 * net.n - 2

    def test_large_spectrum_no_overflow(self):
        A = np.diag([50.0, -50.0, 30.0, -30.0])
        C = np.ones((1, 4))
        assert observability_rank(A, C) == 4

    def test_split_jordan_block_has_no_false_dark_mode(self):
        # the solver splits the Jordan pair at -0.5 into eigenvectors
        # about 1e-8 apart; their span at roundoff level would hold the
        # generalized direction, which this C does not see
        T = np.eye(2) + 0.3 * np.random.default_rng(0).standard_normal((2, 2))
        A = T @ np.array([[-0.5, 1.0], [0.0, -0.5]]) @ la.inv(T)
        C = np.array([[1.0, 0.0]]) @ la.inv(T)
        assert la.svdvals(la.eig(A)[1])[1] > 1e-9
        assert observability_rank(A, C) == 2

    @pytest.mark.parametrize("n", [20, 40, 80])
    @pytest.mark.parametrize("make", [random_network, generic_network])
    def test_observable_open_loops_read_full_rank(self, make, n):
        # PBH is full at every eigenvalue, Laplacian zero chain included;
        # stacked C A^k powers read 34/40, 49/80 and 49/160 here
        A, _, C = assemble(make(n, density=4 / n, seed=1, m=2))
        d = A.shape[0]
        assert all(pbh_test(A, C, lam) == d for lam in la.eigvals(A))
        assert observability_rank(A, C) == d

    def test_designed_loop_loses_one_and_a_perturbed_gain_none(self):
        net = generic_network(40, density=0.1, seed=3, m=2)
        design = design_blocking(net, DesignOptions(seed=3))
        assert complex(design.lambda_p).imag == 0.0
        report = verify_design(design)
        assert report.verdict, report.reasons
        assert report.obs_matrix_rank == report.full_state_dim - 1 == 79
        F = design.gain.matrix
        F[0, np.argmax(np.abs(design.v_hat))] += 1e-3 * max(1.0, np.abs(F).max())
        report = verify_design(design)
        assert report.obs_matrix_rank == report.full_state_dim == 80
        assert any(r.startswith("observability rank 80 leaves 0 dark modes")
                   for r in report.reasons), report.reasons

    def test_repeated_pair_counts_its_dark_span(self):
        # an equal-weight ring: every nonzero eigenvalue is a repeated
        # complex pair whose 2-dimensional eigenspace node 7 sees only in
        # part, so each carries one dark mode while no single eigenvector
        # from the solver is dark
        edges = []
        for i in range(1, 8):
            j = i % 7 + 1
            edges += [(i, j, (1.0, 0.5)), (j, i, (1.0, 0.5))]
        net = IntegratorNetwork.from_graph(WeightedDigraph(n=7, edges=tuple(edges)),
                                           (1, 2, 3), (7,))
        design = design_blocking(net, DesignOptions(seed=0))
        assert complex(design.lambda_p).imag != 0.0
        report = verify_design(design)
        assert report.verdict, report.reasons
        A, B, C = assemble(net)
        A_cl = closed_loop(A, B, design.F)
        lam, V = la.eig(A_cl)
        distinct = []
        for z in lam:
            if all(abs(z - w) > 1e-6 for w in distinct):
                distinct.append(z)
        deficiency = sum(14 - pbh_test(A_cl, C, z) for z in distinct)
        assert report.obs_matrix_rank == 14 - deficiency == 8
        assert not (np.linalg.norm(C @ V, axis=0) <= 1e-8).any()

    def test_verification_solves_the_closed_loop_once(self, monkeypatch):
        # verifying the designer's design, or reading its record and
        # verifying that, solves one d x d eigenproblem, la.eig of A_cl,
        # and decomposes nothing; the other eigenvalue calls are the
        # certificate's r x r quotients
        net = random_network(n=8, seed=14, m=2, q=4)
        design = design_blocking(net, DesignOptions(seed=14))
        A, B, _ = assemble(net)
        A_cl = closed_loop(A, B, design.F)
        data = records.dumps(records.design_to_dict(design))
        calls = []
        for name in ("eig", "eigvals"):
            original = getattr(la, name)

            def spy(a, *args, _original=original, _name=name, **kwargs):
                calls.append((_name, np.array(a)))
                return _original(a, *args, **kwargs)
            monkeypatch.setattr(la, name, spy)
        for module in (records, spectrum):
            original = module.decompose

            def spy(*args, _original=original, **kwargs):
                calls.append(("decompose", None))
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, "decompose", spy)
        for load in (lambda: design,
                     lambda: records.design_from_dict(json.loads(data))):
            calls.clear()
            report = verify_design(load())
            assert report.verdict, report.reasons
            r = report.gain_rank
            assert [name for name, _ in calls] == ["eig", "eigvals", "eigvals"]
            assert np.array_equal(calls[0][1], A_cl)
            assert [a.shape for _, a in calls[1:]] == [(r, r)] * 2


class TestPreservationAudit:
    def test_zero_gain_record_is_exact(self):
        # A_cl = A leaves both quotients the same matrix
        net = random_network(n=6, seed=3, m=1, q=3)
        design = design_blocking(net, DesignOptions(seed=3))
        A, _, _ = assemble(net)
        err, rho, r = preservation_audit(design, A_cl=A)
        assert err == 0.0
        assert rho < DEFAULT_TOLERANCES.preserved_residual
        assert r == 1

    def test_fig2_design_preserves(self):
        net = fig2_din(seed=9)
        result = design_via_cutset(net, options=DesignOptions(seed=9))
        err, rho, r = preservation_audit(result.design)
        assert err < 1e-6
        assert rho < 1e-6
        assert r >= 1

    def test_certificate_passes_the_designers_gains(self):
        # F = Z V^-1 acts only on the replaced and repaired columns, so
        # its row space has their count as dimension, and the designer's
        # own postconditions and the certificate both pass
        tol = DEFAULT_TOLERANCES
        for make, seed in ((random_network, 17), (random_network, 14),
                           (generic_network, 2), (generic_network, 11)):
            design = design_blocking(make(n=7, seed=seed, m=1, q=3),
                                     DesignOptions(seed=seed))
            err, rho, r = preservation_audit(design)
            assert design.residuals["spectrum_match"] <= tol.spectrum_match
            assert err <= tol.spectrum_match and rho <= tol.preserved_residual
            assert r == len(design.replaced) + len(design.repaired), seed

    def test_repaired_columns_not_audited(self):
        # the certificate reads F and the network, no claimed column index
        net = random_network(n=7, seed=17, m=1, q=3)
        design = design_blocking(net, DesignOptions(seed=17))
        assert set(design.preserved).isdisjoint(design.repaired)
        assert set(design.preserved).isdisjoint(design.replaced)
        audit = preservation_audit(design)
        design.preserved = design.repaired = design.replaced = ()
        assert preservation_audit(design) == audit

    def test_entry_off_by_a_thousandth_fails_on_invariance(self):
        # F.flat[11] + 1e-3 max|F| keeps the raw open/closed-loop checks
        # inside budget (multiset 9.3e-7, preserved residuals 2.5e-7), but
        # null(F) is no longer A-invariant
        net = generic_network(12, 2, density=0.4, seed=3, m=1)
        design = design_blocking(net, DesignOptions())
        assert verify_design(design).verdict
        design.gain.matrix.flat[11] += 1e-3 * np.abs(design.F).max()
        A, B, _ = assemble(net)
        err, residuals = closed_loop_audit(decompose(A), closed_loop(A, B, design.F),
                                           design.preserved)
        assert err <= DEFAULT_TOLERANCES.spectrum_match
        assert max(residuals) <= DEFAULT_TOLERANCES.preserved_residual
        report = verify_design(design)
        assert not report.verdict
        assert report.gain_rank == 2
        assert report.invariance_residual == pytest.approx(0.146, abs=1e-3)
        assert any(r.startswith("null(F) invariance residual")
                   for r in report.reasons), report.reasons

    def test_zero_gain_certifies_nothing_and_fails_on_darkness(self):
        # F = 0 keeps the spectrum trivially; the mode it leaves visible
        # fails the PBH, dark-mode and energy oracles (a loop whose open
        # loop hides the mode already, as in the ring above, passes)
        net = generic_network(12, 2, density=0.4, seed=3, m=1)
        design = design_blocking(net, DesignOptions())
        design.gain.matrix[:] = 0.0
        assert preservation_audit(design) == (0.0, 0.0, 0)
        report = verify_design(design)
        assert not report.verdict and report.gain_rank == 0
        assert [r.split()[0] for r in report.reasons] == ["PBH", "observability",
                                                          "blocked-state"]


class TestVerifyDesignOutput:
    def test_default_output_is_the_base_measurement_set(self):
        net = fig2_din(seed=0)
        result = design_via_cutset(net, options=DesignOptions(seed=0))
        default = verify_design(result.design, rng=np.random.default_rng(0))
        base = verify_design(result.design, C=assemble(net)[2],
                             rng=np.random.default_rng(0))
        assert records.verification_to_dict(default) == \
            records.verification_to_dict(base)
        assert default.verdict


class TestOutputEnergy:
    def test_zero_state(self):
        A = -np.eye(3)
        C = np.eye(3)
        energy, _ = output_energy(A, C, np.zeros(3), T=2.0, dt=0.01)
        assert energy == 0.0

    def test_blocked_direction_dark(self):
        net = random_network(n=8, seed=6, m=2, q=4)
        design = design_blocking(net, DesignOptions(seed=6))
        A, B, C = assemble(net)
        A_cl = closed_loop(A, B, design.F)
        x0 = np.real(design.v_hat)
        x0 /= np.linalg.norm(x0)
        energy, used = output_energy(A_cl, C, x0, T=10.0)
        assert used == pytest.approx(10.0)
        assert energy < 1e-10 * used

    def test_generic_direction_visible(self, rng):
        net = random_network(n=8, seed=6, m=2, q=4)
        design = design_blocking(net, DesignOptions(seed=6))
        A, B, C = assemble(net)
        A_cl = closed_loop(A, B, design.F)
        x0 = rng.standard_normal(16)
        x0 /= np.linalg.norm(x0)
        energy, _ = output_energy(A_cl, C, x0, T=10.0)
        assert energy > 1e-4

    def test_step_halving_stable(self, rng):
        net = random_network(n=6, seed=8, m=1, q=3)
        A, _, C = assemble(net)
        x0 = rng.standard_normal(12)
        x0 /= np.linalg.norm(x0)
        e1, _ = output_energy(A, C, x0, T=5.0, dt=0.01)
        e2, _ = output_energy(A, C, x0, T=5.0, dt=0.005)
        assert abs(e1 - e2) < 0.01 * max(e1, e2)

    def test_unstable_horizon_shortened(self):
        A = np.array([[400.0]])
        C = np.eye(1)
        _, used = output_energy(A, C, np.ones(1), T=10.0, dt=0.01)
        assert used < 10.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            output_energy(np.eye(2), np.eye(2), np.ones(2), T=0.0)


def stepwise_output_energy(A_cl, C, x0, T=10.0, dt=0.01):
    """The former per-step witness loop, kept as the reference."""
    A_cl = np.asarray(A_cl, dtype=float)
    C = np.asarray(C, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    E = la.expm(A_cl * dt)
    steps = int(round(T / dt))
    acc = 0.0
    prev = float(np.linalg.norm(C @ x) ** 2)
    used = 0.0
    for _ in range(steps):
        x = E @ x
        if not np.isfinite(x).all() or np.linalg.norm(x) > 1e150:
            break
        cur = float(np.linalg.norm(C @ x) ** 2)
        acc += 0.5 * (prev + cur) * dt
        prev = cur
        used += dt
    return acc, used


def _agreement_loops():
    """(name, A_cl, C, blocked x0 or None) for the doubling/stepwise
    comparison: designed Laplacian loops (Jordan block at zero), designed
    generic loops (unstable modes) and plain unstable matrices, two of
    which cut the horizon short."""
    loops = []
    for family, make in (("laplacian", random_network),
                         ("generic", generic_network)):
        for seed in range(14):
            m = 1 + seed % 2
            kwargs = {"density": 0.4} if family == "laplacian" else {}
            net = make(n=6 + seed % 5, seed=seed, m=m, q=m + 2, **kwargs)
            design = design_blocking(net, DesignOptions(seed=seed))
            A, B, C = assemble(net)
            x0 = np.real(design.v_hat)
            if np.linalg.norm(x0) < 1e-8:
                x0 = np.imag(design.v_hat)
            loops.append((f"{family}-{seed}", closed_loop(A, B, design.F), C,
                          x0 / np.linalg.norm(x0)))
    rng = np.random.default_rng(5)
    loops.append(("unstable-shift-2", rng.standard_normal((8, 8)) + 2 * np.eye(8),
                  rng.standard_normal((2, 8)), None))
    loops.append(("unstable-shift-40", rng.standard_normal((8, 8)) + 40 * np.eye(8),
                  rng.standard_normal((2, 8)), None))
    loops.append(("scalar-4000", np.array([[4000.0]]), np.eye(1), None))
    return loops


@pytest.fixture(scope="module")
def agreement_runs():
    rng = np.random.default_rng(21)
    runs = []
    for name, A_cl, C, x_blocked in _agreement_loops():
        starts = [("random", rng.standard_normal(A_cl.shape[0]))]
        if x_blocked is not None:
            starts.append(("blocked", x_blocked))
        for kind, x0 in starts:
            x0 = x0 / np.linalg.norm(x0)
            with np.errstate(over="ignore"):   # the reference's norm test
                ref = stepwise_output_energy(A_cl, C, x0)
            runs.append((f"{name}/{kind}", kind, output_energy(A_cl, C, x0), ref))
    return runs


class TestOutputEnergyDoubling:
    """The doubling trajectory against the former stepwise loop."""

    def test_agreement_set_covers_the_cases(self, agreement_runs):
        kinds = [kind for (_, kind, _, _) in agreement_runs]
        assert len(agreement_runs) - kinds.count("blocked") >= 30
        assert kinds.count("blocked") == 28
        assert any(new[1] < 10.0 for (_, _, new, _) in agreement_runs)

    def test_energy_matches_stepwise(self, agreement_runs):
        for label, kind, (energy, _), (e_ref, _) in agreement_runs:
            if kind == "random":
                random_ref = e_ref
                assert abs(energy - e_ref) <= 1e-9 * e_ref, label
            else:
                # dark states sit at roundoff level, where the two
                # methods differ by up to 10x (generic-6: 4.1e-24 against
                # 4.0e-25); they are held to the verdict's threshold,
                # candidate_residual^2 times the loop's random energy
                bound = 1e-14 * random_ref
                assert abs(energy - e_ref) <= 1e-5 * bound, label

    def test_horizon_matches_stepwise(self, agreement_runs):
        dt = 0.01
        for label, _, (_, used), (_, used_ref) in agreement_runs:
            assert used == round(used_ref / dt) * dt, label

    def test_shared_propagator_gives_the_standalone_bits(self, agreement_runs):
        # both starts of each loop through one step_propagator, against
        # the standalone calls of the agreement runs
        runs = iter(agreement_runs)
        rng = np.random.default_rng(21)
        for name, A_cl, C, x_blocked in _agreement_loops():
            prop = step_propagator(A_cl)
            starts = [rng.standard_normal(A_cl.shape[0])]
            if x_blocked is not None:
                starts.append(x_blocked)
            for x0 in starts:
                label, _, alone, _ = next(runs)
                shared = output_energy(A_cl, C, x0 / np.linalg.norm(x0),
                                       propagator=prop)
                assert np.array(shared).tobytes() == np.array(alone).tobytes(), label

    def test_blocked_energy_non_negative(self, agreement_runs):
        for label, kind, (energy, _), _ in agreement_runs:
            if kind == "blocked":
                assert energy >= 0.0, label

    @pytest.mark.parametrize("rate, used", [(400.0, 0.86), (4000.0, 0.08)])
    def test_horizon_cut_is_exact(self, rate, used):
        # |x(k dt)| = exp(rate k dt) first exceeds 1e150 at k = used/dt + 1
        _, got = output_energy(np.array([[rate]]), np.eye(1), np.ones(1),
                               T=10.0, dt=0.01)
        assert got == used

    @pytest.mark.parametrize("T, dt", [(10.0, 0.01), (2.0, 0.01), (5.0, 0.005),
                                       (1.0, 0.1)])
    def test_full_horizon_is_exact(self, T, dt):
        _, used = output_energy(-np.eye(2), np.eye(2), np.ones(2), T=T, dt=dt)
        assert used == T

    def test_overflowing_power_keeps_full_horizon(self):
        # E^p overflows for p >= 178, but the state never touches the
        # unstable coordinate; stepping must not turn 0 * inf into a cut
        A = np.diag([400.0, -1.0])
        x0 = np.array([0.0, 1.0])
        energy, used = output_energy(A, np.eye(2), x0)
        e_ref, used_ref = stepwise_output_energy(A, np.eye(2), x0)
        assert used == 10.0 and round(used_ref / 0.01) == 1000
        assert energy == pytest.approx(e_ref, rel=1e-12)
        energy, used = output_energy(A, np.eye(2), np.zeros(2))
        assert (energy, used) == (0.0, 10.0)

    @pytest.mark.parametrize("rate, x0", [(400.0, [0.0, 1.0]), (400.0, [1.0, 1.0]),
                                          (4000.0, [1.0, 0.0])])
    def test_shared_propagator_on_overflow_and_cut_horizons(self, rate, x0):
        # a square overflows (E^256 at rate 400, E^32 at rate 4000): a
        # start off the unstable coordinate keeps the full horizon through
        # the fallback, the others are cut
        A = np.diag([rate, -1.0])
        prop = step_propagator(A)
        assert len(prop.powers) < 10
        for start in (np.array(x0), np.array([0.6, 0.8])):
            shared = output_energy(A, np.eye(2), start, propagator=prop)
            alone = output_energy(A, np.eye(2), start)
            assert np.array(shared).tobytes() == np.array(alone).tobytes()

    def test_verify_design_shares_one_propagator(self, monkeypatch):
        net = random_network(n=8, seed=6, m=2, q=4)
        design = design_blocking(net, DesignOptions(seed=6))
        plain = records.verification_to_dict(verify_design(design))
        calls = []

        def spy(*args):
            calls.append(args[-1])
            return output_energy(*args)

        monkeypatch.setattr(verify, "output_energy", spy)
        assert records.verification_to_dict(verify_design(design)) == plain
        assert len(calls) == 2
        assert isinstance(calls[0], verify.StepPropagator) and calls[1] is calls[0]

    def test_perturbed_gain_fails_energy_check(self):
        # perturb the gain entry that acts on the blocked state's largest
        # coordinate; an entry acting on a near-zero coordinate leaves
        # the state nearly dark and is caught by the spectrum checks
        net = random_network(n=8, seed=6, m=2, q=4)
        design = design_blocking(net, DesignOptions(seed=6))
        report = verify_design(design)
        assert report.verdict, report.reasons
        column = int(np.argmax(np.abs(np.real(design.v_hat))))
        design.gain.matrix[0, column] += 1e-3
        report = verify_design(design)
        assert report.output_energy > report.blocked_energy_bound
        assert any(r.startswith("blocked-state output energy")
                   for r in report.reasons), report.reasons


def _energy_failed(report):
    return any(r.startswith("blocked-state output energy") for r in report.reasons)


class TestEnergyWitness:
    """The blocked start against the random start on the shifted loop."""

    def test_laplacian_gain_entry_fails_on_energy(self):
        net = random_network(n=8, seed=6, m=2, q=4)
        design = design_blocking(net, DesignOptions(seed=6))
        design.gain.matrix[0, 0] += 1e-3
        report = verify_design(design)
        assert report.output_energy > report.blocked_energy_bound
        assert _energy_failed(report), report.reasons

    def test_every_gain_entry_that_moves_the_blocked_start_fails(self):
        # a +1e-3 entry of F at column j changes A_cl x0 by 1e-3 * x0[j];
        # the blocked start is zero (to roundoff) at the measured nodes,
        # where the perturbed loop keeps x0 an eigenvector
        net = random_network(n=8, seed=6, m=2, q=4)
        design = design_blocking(net, DesignOptions(seed=6))
        F = design.F.copy()
        x0 = np.real(design.v_hat)
        moved = np.abs(x0 / np.linalg.norm(x0)) > DEFAULT_TOLERANCES.zero_pattern
        failed = np.zeros(F.shape, dtype=bool)
        for i, j in np.ndindex(F.shape):
            design.gain.matrix[:] = F
            design.gain.matrix[i, j] += 1e-3
            failed[i, j] = _energy_failed(verify_design(design))
        assert F.size == 64 and failed.sum() == 40
        assert (failed == moved[None, :]).all()

    def test_unstable_generic_cutset_loop_verifies(self):
        # Re lambda(A_cl) above 100 cuts an unshifted horizon near 2 s;
        # the shift keeps the full horizon and the blocked start dark
        net = cut_friendly_network(30, 30, generic=True, cut_size=3, seed=0)
        result = design_via_cutset(net, options=DesignOptions(seed=0))
        loaded = records.design_from_dict(
            json.loads(records.dumps(records.design_to_dict(result))))
        design = loaded.design
        A, B, _ = assemble(design.network)
        assert la.eigvals(closed_loop(A, B, design.F)).real.max() > 100
        report = verify_design(design)
        assert report.verdict, report.reasons
        assert report.output_energy <= report.blocked_energy_bound


class TestVerifyDesign:
    def test_accepted_design_passes_all_oracles(self):
        net = random_network(n=8, seed=14, m=2, q=4)
        design = design_blocking(net, DesignOptions(seed=14))
        report = verify_design(design)
        assert report.verdict
        assert not report.reasons
        assert report.pbh_rank_at_lambda < report.full_state_dim
        assert report.obs_matrix_rank < report.full_state_dim
        assert report.output_energy < report.blocked_energy_bound
        assert report.random_output_energy > 1e-6

    def test_cutset_design_verifies_against_base_output(self):
        net = fig2_din(seed=12)
        result = design_via_cutset(net, options=DesignOptions(seed=12))
        _, _, C = assemble(net)
        report = verify_design(result.design, C=C)
        assert report.verdict, report.reasons

    def test_tampered_gain_fails(self):
        net = random_network(n=7, seed=4, m=1, q=3)
        design = design_blocking(net, DesignOptions(seed=4))
        design.gain.matrix[0, 0] += 0.5
        report = verify_design(design)
        assert not report.verdict
        assert report.reasons
