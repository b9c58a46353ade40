"""Tolerances: one settable budget, the rest constants of the class."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from obsblock import cutset, designer, spectrum, verify
from obsblock.config import DEFAULT_TOLERANCES, DesignOptions, Tolerances
from obsblock.errors import InvalidInputError

CONSTANTS = {"rank_decision": 1e-12, "snap_imag": 1e-8, "lg_margin": 1e-6,
             "zero_pattern": 1e-8, "preserved_residual": 1e-6,
             "candidate_residual": 1e-7, "cond_limit": 1e12, "lambda_match": 1e-6}


class TestTolerances:
    def test_spectrum_match_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(Tolerances)] == ["spectrum_match"]
        assert DEFAULT_TOLERANCES.spectrum_match == 1e-6
        assert DesignOptions().tolerances == DEFAULT_TOLERANCES

    def test_other_budgets_are_class_constants(self):
        for name, value in CONSTANTS.items():
            assert getattr(Tolerances, name) == value, name

    @pytest.mark.parametrize("make", [
        lambda: Tolerances(zero_pattern=1e-3),
        lambda: dataclasses.replace(DEFAULT_TOLERANCES, lambda_match=1)],
        ids=["init", "replace"])
    def test_a_constant_cannot_be_set(self, make):
        with pytest.raises(TypeError):
            make()

    def test_instances_read_the_constants(self):
        # the benchmark's checker reads budgets from an instance
        tol = Tolerances(spectrum_match=1e-4)
        assert tol.spectrum_match == 1e-4
        assert tol.zero_pattern == 1e-8
        for name, value in CONSTANTS.items():
            assert getattr(tol, name) == value, name

    @pytest.mark.parametrize("func", [
        spectrum.decompose, spectrum.match_eigenvalue,
        designer.check_controllability, designer.candidates,
        designer._zero_screen, cutset.lg_condition, verify.pbh_test,
        verify.observability_rank, verify.preservation_audit],
        ids=lambda f: f.__name__)
    def test_constant_readers_take_no_tolerances(self, func):
        assert "tol" not in inspect.signature(func).parameters

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       0.0, -1.0, -1e-6])
    def test_spectrum_budget_is_finite_and_positive(self, value):
        with pytest.raises(InvalidInputError, match="spectrum tolerance"):
            Tolerances(spectrum_match=value)

    def test_positive_spectrum_budgets_are_kept(self):
        for value in (1e-12, 1e-6, 1e-4, 1.0):
            assert Tolerances(spectrum_match=value).spectrum_match == value


class TestDesignOptions:
    def test_negative_seed_is_rejected(self):
        with pytest.raises(InvalidInputError, match="seed -1 is negative"):
            DesignOptions(seed=-1)
        assert DesignOptions(seed=0).seed == 0
