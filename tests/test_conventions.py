import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ensemble_teleport import (
    BELL_INDICES,
    CoefficientVector,
    ConventionResult,
    PreparationTensor,
    alice_prepare,
    automatic_preparation,
    bloch_coefficient_rows,
    compare_conventions,
    hermitian_spectrum,
    matrix_unit,
    pauli,
    prepare_sandwich,
    preparation_from_bell,
    renormalize,
    sandwich_numerator,
    transformation_matrix,
)
from ensemble_teleport import conventions, protocol
from ensemble_teleport.conventions import _compare_rows
from ensemble_teleport.fidelity import SAMPLERS
from ensemble_teleport.linalg import embed_sender_pair
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


def reference_compare(u, c) -> ConventionResult:
    """One comparison on the two separate 8x8 paths: the body the batch kernel replaced."""
    raw = alice_prepare(u, c)
    ansatz = renormalize(raw)
    numerator = sandwich_numerator(u, c)
    sandwich = prepare_sandwich(u, c)
    ratio = float(np.trace(numerator).real / np.trace(raw).real)
    diff = float(np.max(np.abs(ansatz - sandwich)))
    return ConventionResult(ansatz=ansatz, sandwich=sandwich, max_abs_diff=diff, prenorm_ratio=ratio)


def assert_same_bits(result, expected):
    assert result.ansatz.tobytes() == expected.ansatz.tobytes()
    assert result.sandwich.tobytes() == expected.sandwich.tobytes()
    for field in ("max_abs_diff", "prenorm_ratio"):
        value, wanted = getattr(result, field), getattr(expected, field)
        assert value == wanted
        assert np.float64(value).tobytes() == np.float64(wanted).tobytes()


def kernel_results(u, cs):
    """The batch kernel on a list of coefficient vectors, one ConventionResult per row."""
    ansatz, sandwich, diff, ratio = _compare_rows(u, np.stack([c.as_vector() for c in cs]))
    return [
        ConventionResult(ansatz[i], sandwich[i], float(diff[i]), float(ratio[i]))
        for i in range(len(cs))
    ]


class TestOneSandwich:
    @given(c=bloch_coefficient_strategy(), k=st.integers(min_value=0, max_value=4))
    def test_fields_bitwise_equal_the_two_call_form(self, c, k):
        u = FIVE_PREPARATIONS[k]
        assert_same_bits(compare_conventions(u, c), reference_compare(u, c))


class TestBatchKernel:
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    @pytest.mark.parametrize("k", range(5))
    def test_rows_bitwise_equal_the_reference(self, k, sampler):
        u = FIVE_PREPARATIONS[k]
        x, y, z = SAMPLERS[sampler](np.random.default_rng([k, sorted(SAMPLERS).index(sampler)]), 1000)
        ansatz, sandwich, diff, ratio = _compare_rows(u, bloch_coefficient_rows(x, y, z))
        for i in range(len(x)):
            c = CoefficientVector.from_bloch(x[i], y[i], z[i])
            expected = reference_compare(u, c)
            row = ConventionResult(ansatz[i], sandwich[i], float(diff[i]), float(ratio[i]))
            assert_same_bits(row, expected)
            assert_same_bits(compare_conventions(u, c), expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_general_tensors(self, seed):
        # weights with no exact binary structure, where a different product
        # order would round differently; P is positive definite, so no row is annihilated
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = sender_pair_tensor(g @ g.conj().T + np.eye(4))
        x, y, z = SAMPLERS["mixed_uniform"](rng, 200)
        cs = [CoefficientVector.from_bloch(x[i], y[i], z[i]) for i in range(len(x))]
        for c, row in zip(cs, kernel_results(u, cs)):
            assert_same_bits(row, reference_compare(u, c))

    @pytest.mark.parametrize("k", range(5))
    def test_boundary_inputs(self, k):
        # the maximally mixed input (r = 0) and pure inputs on each axis (|r| = 1)
        u = FIVE_PREPARATIONS[k]
        h = np.sqrt(0.5)
        points = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (h, 0, h)]
        cs = [CoefficientVector.from_bloch(*p) for p in points]
        for c, row in zip(cs, kernel_results(u, cs)):
            expected = reference_compare(u, c)
            assert_same_bits(row, expected)
            assert_same_bits(compare_conventions(u, c), expected)

    def test_embeds_each_preparation_once(self, monkeypatch):
        u = preparation_from_bell(2)
        p8 = u.sender_operator
        assert not p8.flags.writeable
        assert p8.tobytes() == embed_sender_pair(u.matrix()).tobytes()

        def refuse(*_):
            raise AssertionError("sender operator rebuilt")

        monkeypatch.setattr(conventions, "embed_sender_pair", refuse)
        monkeypatch.setattr(protocol, "embed_sender_pair", refuse)
        compare_conventions(u, CoefficientVector.from_components(0.5))
        assert u.sender_operator is p8

    def test_result_shapes(self):
        ansatz, sandwich, diff, ratio = _compare_rows(automatic_preparation(), np.zeros((0, 4)))
        assert (ansatz.shape, sandwich.shape, diff.shape, ratio.shape) == ((0, 2, 2), (0, 2, 2), (0,), (0,))

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 4, 1)])
    def test_rejects_non_row_shapes(self, shape):
        with pytest.raises(ValueError, match=r"\(N, 4\) array"):
            _compare_rows(automatic_preparation(), np.zeros(shape))


def sender_pair_tensor(p) -> PreparationTensor:
    """The preparation tensor whose 4x4 operator on the sender pair is ``p``, unnormalized."""
    return PreparationTensor(np.asarray(p, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3), False)


def _unit(row, col, scale=1.0):
    p = np.zeros((4, 4), dtype=complex)
    p[row, col] = scale
    return p


_HUGE = 1.7e308
# Nonzero on |01> and |11> only, with complex off-diagonal weights of modulus
# sqrt(2) * _HUGE: the one-sided trace of the equatorial input at 45 degrees
# overflows, and the opposite input's is negative. The two-sided product of
# every input overflows, and the poles' two-sided totals are nan.
_OVERFLOWING = _unit(1, 1, _HUGE) + _unit(3, 3, _HUGE) + _unit(1, 3, _HUGE * (1 - 1j)) + _unit(3, 1, _HUGE * (1 + 1j))
_H = np.sqrt(0.5)

# name -> (sender-pair operator, inputs, index of the lowest failing row, its message)
FIRST_FAILURES = {
    # every input is annihilated
    "zero tensor": (
        np.zeros((4, 4)),
        [CoefficientVector.from_components(0.3), CoefficientVector.from_components(1.0)],
        0,
        "preparation annihilated the ensemble: trace 0.000e+00 <= 1e-09",
    ),
    # one-sided trace c11 / 2
    "one-sided annihilation": (
        _unit(0, 0),
        [CoefficientVector.from_components(c11) for c11 in (0.7, 0.2, 1e-10, 0.0)],
        2,
        "preparation annihilated the ensemble: trace 5.000e-11 <= 1e-09",
    ),
    # P @ P = 0: the one-sided trace is c12 / 2, the two-sided one is 0
    "matrix unit |00><10|": (
        _unit(0, 2),
        [CoefficientVector.from_components(0.5, c12) for c12 in (0.25, 0.5)],
        0,
        "two-sided update annihilated the ensemble: total trace 0j",
    ),
    # one-sided trace (c21 + c22) / 2, two-sided c22 / 2
    "two-sided-only annihilation": (
        _unit(0, 2) + _unit(3, 3),
        [
            CoefficientVector.from_components(0.5, 0.25),
            CoefficientVector.from_components(0.1, 0.2),
            CoefficientVector.from_components(1.0 - 1e-10, 9e-6),
            CoefficientVector.from_components(1.0),
        ],
        2,
        "two-sided update annihilated the ensemble: total trace (5.000000413701855e-11+0j)",
    ),
    "non-finite raw operator": (
        _OVERFLOWING,
        [CoefficientVector.from_bloch(*p) for p in ((_H, _H, 0), (-_H, -_H, 0))],
        0,
        "matrix contains NaN or Inf entries",
    ),
    # A nan total is an annihilation, not a result; the pole's row fails the
    # last check and the equator's the first, and the lower row is reported.
    "nan two-sided total": (
        _OVERFLOWING,
        [CoefficientVector.from_bloch(*p) for p in ((0, 0, 1), (0, 0, -1), (_H, _H, 0))],
        0,
        "two-sided update annihilated the ensemble: total trace (nan+nanj)",
    ),
    # The raw operator's off-diagonal entry overflows (4.25e307+inf j) while
    # its trace is 0: the finite check must come before the trace checks.
    "non-finite raw operator with zero trace": (
        _HUGE * (
            _unit(0, 1, -1 - 1j) + _unit(0, 3, -1 + 1j) + _unit(1, 0, -1) + _unit(2, 1, 1 + 1j) + _unit(2, 3, -1j)
        ),
        [CoefficientVector.from_bloch(-_H, _H, 0)],
        0,
        "matrix contains NaN or Inf entries",
    ),
    # the lower row fails a later check than the higher row
    "annihilation before a non-finite row": (
        _OVERFLOWING,
        [CoefficientVector.from_bloch(*p) for p in ((-_H, -_H, 0), (_H, _H, 0))],
        0,
        "preparation annihilated the ensemble: trace -3.521e+307 <= 1e-09",
    ),
}


class TestFirstFailure:
    @pytest.mark.parametrize("case", sorted(FIRST_FAILURES))
    def test_lowest_failing_row_raises_its_message(self, case):
        p, cs, row, message = FIRST_FAILURES[case]
        u = sender_pair_tensor(p)
        # the rows before it pass (the overflowing products of the reference path warn)
        with np.errstate(all="ignore"):
            for c in cs[:row]:
                reference_compare(u, c)
            for call in (lambda: reference_compare(u, cs[row]), lambda: compare_conventions(u, cs[row])):
                with pytest.raises(ValueError) as one:
                    call()
                assert str(one.value) == message
        with pytest.raises(ValueError) as batch:
            _compare_rows(u, np.stack([c.as_vector() for c in cs]))
        assert str(batch.value) == message

    @pytest.mark.parametrize("case", sorted(FIRST_FAILURES))
    def test_one_row_as_two(self, case):
        # a one-row call takes the scalar checks, the row stacked twice the batch checks
        p, cs, row, _ = FIRST_FAILURES[case]
        u = sender_pair_tensor(p)
        for c in cs[:row]:  # bitwise
            one = compare_conventions(u, c)
            two = _compare_rows(u, np.stack([c.as_vector()] * 2))
            fields = (one.ansatz, one.sandwich, one.max_abs_diff, one.prenorm_ratio)
            for value, column in zip(fields, two):
                assert np.asarray(value).tobytes() == column[0].tobytes()
        with pytest.raises(ValueError) as two:
            _compare_rows(u, np.stack([cs[row].as_vector()] * 2))
        with pytest.raises(ValueError) as one:
            compare_conventions(u, cs[row])
        assert str(one.value) == str(two.value)


class TestSandwichCoefficientOracle:
    """The two-sided numerator is the coefficient map of P @ P applied to the input.

    The trace over the sender pair is cyclic in operators on that pair, so
    Tr_CA[P (rho ⊗ Phi) P] = Tr_CA[P @ P (rho ⊗ Phi)]. A test oracle only: the
    comparison itself keeps the two independent 8x8 computations.
    """

    @given(c=bloch_coefficient_strategy(), k=st.integers(min_value=0, max_value=4))
    def test_numerator_is_half_the_square_map(self, c, k):
        p = FIVE_PREPARATIONS[k].matrix()
        square_map = transformation_matrix(sender_pair_tensor(p @ p))
        expected = 0.5 * square_map @ c.as_vector()
        assert np.max(np.abs(sandwich_numerator(FIVE_PREPARATIONS[k], c).reshape(4) - expected)) < 1e-12

    @pytest.mark.parametrize("k", range(5))
    def test_square_map_is_t_or_twice_t(self, k):
        # Bell projectors are idempotent; the automatic preparation squares to twice itself
        u = FIVE_PREPARATIONS[k]
        p = u.matrix()
        square_map = transformation_matrix(sender_pair_tensor(p @ p))
        factor = 2.0 if k == 4 else 1.0
        assert np.array_equal(square_map, factor * transformation_matrix(u))
