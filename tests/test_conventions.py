import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ensemble_teleport import (
    BELL_INDICES,
    CoefficientVector,
    alice_prepare,
    automatic_preparation,
    compare_conventions,
    hermitian_spectrum,
    matrix_unit,
    pauli,
    prepare_sandwich,
    preparation_from_bell,
    renormalize,
    sandwich_numerator,
)
from conftest import random_coefficients
from test_protocol import bloch_coefficient_strategy


class TestSandwichNumerator:
    def test_bell_one_coefficient_pattern(self, rng):
        for c in random_coefficients(rng, 20):
            numerator = sandwich_numerator(preparation_from_bell(1), c)
            expected = 0.25 * np.array([[c.c22, -c.c21], [-c.c12, c.c11]])
            assert np.max(np.abs(numerator - expected)) < 1e-13

    def test_bell_one_total_trace_quarter(self, rng):
        for c in random_coefficients(rng, 20):
            numerator = sandwich_numerator(preparation_from_bell(1), c)
            assert abs(np.trace(numerator).real - 0.25) < 1e-12

    def test_automatic_numerator_doubles_one_sided(self, rng):
        u = automatic_preparation()
        for c in random_coefficients(rng, 10):
            two_sided = sandwich_numerator(u, c)
            one_sided = alice_prepare(u, c)
            assert np.max(np.abs(two_sided - 2.0 * one_sided)) < 1e-13


class TestPrepareSandwich:
    def test_bell_one_recovers_conjugated_input(self, rng):
        s1, s3 = pauli(1), pauli(3)
        for c in random_coefficients(rng, 20):
            result = prepare_sandwich(preparation_from_bell(1), c)
            expected = s3 @ s1 @ c.matrix() @ s1 @ s3
            assert np.max(np.abs(result - expected)) < 1e-12

    def test_unit_trace(self, rng):
        for i in BELL_INDICES:
            c = random_coefficients(rng, 1)[0]
            result = prepare_sandwich(preparation_from_bell(i), c)
            assert abs(np.trace(result).real - 1.0) < 1e-12

    def test_hermitian_and_positive(self, rng):
        for c in random_coefficients(rng, 10):
            result = prepare_sandwich(preparation_from_bell(2), c)
            assert np.max(np.abs(result - result.conj().T)) < 1e-12
            assert hermitian_spectrum(result)[-1] >= -1e-10

    def test_annihilating_preparation_rejected(self):
        # no valid coefficients annihilate a projective preparation, so force
        # the degenerate case with the zero tensor
        from ensemble_teleport import PreparationTensor

        zero = PreparationTensor(u=np.zeros((2, 2, 2, 2)), normalized=False)
        with pytest.raises(ValueError, match="annihilated"):
            prepare_sandwich(zero, CoefficientVector.from_components(0.5))


class TestCompareConventions:
    @pytest.mark.parametrize("i", BELL_INDICES)
    def test_projective_conventions_agree(self, i, rng):
        u = preparation_from_bell(i)
        for c in random_coefficients(rng, 25):
            result = compare_conventions(u, c)
            assert result.max_abs_diff < 1e-12
            assert abs(result.prenorm_ratio - 1.0) < 1e-12

    def test_automatic_agrees_with_ratio_two(self, rng):
        u = automatic_preparation()
        for c in random_coefficients(rng, 25):
            result = compare_conventions(u, c)
            assert result.max_abs_diff < 1e-12
            assert abs(result.prenorm_ratio - 2.0) < 1e-12

    def test_basis_state_through_fourth_projector(self):
        c = CoefficientVector.from_components(1.0)
        result = compare_conventions(preparation_from_bell(4), c)
        assert np.max(np.abs(result.ansatz - matrix_unit(1, 1))) < 1e-12
        assert np.max(np.abs(result.sandwich - matrix_unit(1, 1))) < 1e-12

    def test_both_members_unit_trace(self, rng):
        c = random_coefficients(rng, 1)[0]
        result = compare_conventions(preparation_from_bell(3), c)
        assert abs(np.trace(result.ansatz).real - 1.0) < 1e-12
        assert abs(np.trace(result.sandwich).real - 1.0) < 1e-12


class TestConventionInvariants:
    @given(c=bloch_coefficient_strategy(), i=st.sampled_from(BELL_INDICES))
    def test_idempotent_preparations_make_conventions_coincide(self, c, i):
        result = compare_conventions(preparation_from_bell(i), c)
        assert result.max_abs_diff < 1e-12

    @given(c=bloch_coefficient_strategy())
    def test_sandwich_output_is_statistical_operator(self, c):
        result = prepare_sandwich(preparation_from_bell(1), c)
        assert abs(np.trace(result).real - 1.0) < 1e-12
        assert np.max(np.abs(result - result.conj().T)) < 1e-12
        assert hermitian_spectrum(result)[-1] >= -1e-10


FIVE_PREPARATIONS = [preparation_from_bell(i) for i in BELL_INDICES] + [automatic_preparation()]


class TestOneSandwich:
    @given(c=bloch_coefficient_strategy(), k=st.integers(min_value=0, max_value=4))
    def test_fields_bitwise_equal_the_two_call_form(self, c, k):
        u = FIVE_PREPARATIONS[k]
        raw = alice_prepare(u, c)
        ansatz = renormalize(raw)
        sandwich = prepare_sandwich(u, c)
        ratio = float(np.trace(sandwich_numerator(u, c)).real / np.trace(raw).real)
        result = compare_conventions(u, c)
        assert result.ansatz.tobytes() == ansatz.tobytes()
        assert result.sandwich.tobytes() == sandwich.tobytes()
        assert result.prenorm_ratio == ratio
        assert result.max_abs_diff == float(np.max(np.abs(ansatz - sandwich)))
