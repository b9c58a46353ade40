"""Tolerances: one settable budget, the rest constants of the class."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from obsblock import cutset, designer, spectrum, verify
from obsblock.config import DEFAULT_TOLERANCES, DesignOptions, Tolerances

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
        spectrum.decompose, spectrum.match_eigenvalue, designer.pbh_screen,
        designer.check_controllability, designer.candidates,
        designer._zero_screen, cutset.lg_condition, verify.pbh_test,
        verify.observability_rank, verify.preservation_audit],
        ids=lambda f: f.__name__)
    def test_constant_readers_take_no_tolerances(self, func):
        assert "tol" not in inspect.signature(func).parameters
