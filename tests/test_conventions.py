import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ensemble_teleport import (
    BELL_INDICES,
    CoefficientVector,
    ConventionResult,
    PreparationTensor,
    alice_prepare,
    automatic_preparation,
    bloch_coefficient_rows,
    coefficient_rows,
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
from ensemble_teleport.conventions import _both_updates, _compare_rows
from ensemble_teleport.fidelity import SAMPLERS
from ensemble_teleport.protocol import ClassicalMessage, _row_state, run_session
from ensemble_teleport.linalg import AGREE_TOL, embed_sender_pair
from conftest import random_coefficients
from test_frozen_constants import can_be_made_writable
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


# the maximally mixed input (r = 0) and pure inputs on each axis (|r| = 1)
BOUNDARY_POINTS = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (np.sqrt(0.5), 0, np.sqrt(0.5))]


def has_subnormal_part(c: CoefficientVector) -> bool:
    return any(0.0 < abs(p) < sys.float_info.min for z in c.row.ravel().tolist() for p in (z.real, z.imag))


class TestOneSandwich:
    # the strategy's draw (x, y, z, r) = (1, 1, 0, 3e-323): the 8x8 path rounds its subnormal parts twice
    @example(c=CoefficientVector.from_components(0.5, 1e-323 - 1e-323j), k=0)
    @example(c=CoefficientVector.from_components(0.5, 1e-323 - 1e-323j), k=2)
    @given(c=bloch_coefficient_strategy(), k=st.integers(min_value=0, max_value=4))
    def test_fields_bitwise_equal_the_two_call_form(self, c, k):
        """Bit for bit without subnormal parts; on them, the contract of ``TestIdentityPath::test_subnormal_inputs``."""
        u = FIVE_PREPARATIONS[k]
        record = compare_conventions(u, c)
        if not has_subnormal_part(c):
            assert_same_bits(record, reference_compare(u, c))
            return
        assert record.max_abs_diff == 0.0
        assert record.prenorm_ratio == u.diagonal_weight()
        for reference in (renormalize(alice_prepare(u, c)), prepare_sandwich(u, c)):
            assert np.abs(record.ansatz - reference).max() <= AGREE_TOL
        session = run_session(c, u, ClassicalMessage.pre_agreed(), False)
        assert record.ansatz.tobytes() == session.bob_state.tobytes()


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
        u = FIVE_PREPARATIONS[k]
        cs = [CoefficientVector.from_bloch(*p) for p in BOUNDARY_POINTS]
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

        monkeypatch.setattr(protocol, "embed_sender_pair", refuse)
        c = CoefficientVector.from_components(0.5)
        compare_conventions(u, c)
        alice_prepare(u, c)
        sandwich_numerator(u, c)
        assert u.sender_operator is p8

    def test_result_shapes(self):
        ansatz, sandwich, diff, ratio = _compare_rows(automatic_preparation(), np.zeros((0, 4)))
        assert (ansatz.shape, sandwich.shape, diff.shape, ratio.shape) == ((0, 2, 2), (0, 2, 2), (0,), (0,))

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 4, 1)])
    def test_rejects_non_row_shapes(self, shape):
        with pytest.raises(ValueError, match=r"\(N, 4\) array"):
            _compare_rows(automatic_preparation(), np.zeros(shape))


def signed_zero_rows() -> np.ndarray:
    """Pure pole and mixed inputs whose zero components take every sign, real and imaginary."""
    zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    c12 = np.array([a for a in zeros for _ in zeros])
    c21 = np.array([b for _ in zeros for b in zeros])
    n = len(c12)
    poles = [(1.0, 0.0), (1.0, -0.0), (0.0, 1.0), (-0.0, 1.0), (0.5, 0.5)]
    return np.concatenate(
        [coefficient_rows(np.full(n, c11), c12, c21, np.full(n, c22)) for c11, c22 in poles]
    )


def _map_test_rows() -> dict:
    """name -> (N, 4) rows: both samplers at N = 1000, the boundary points and the signed-zero inputs."""
    rows = {
        sampler: bloch_coefficient_rows(*SAMPLERS[sampler](np.random.default_rng([17, i]), 1000))
        for i, sampler in enumerate(sorted(SAMPLERS))
    }
    rows["boundary"] = np.stack([CoefficientVector.from_bloch(*p).as_vector() for p in BOUNDARY_POINTS])
    rows["signed zeros"] = signed_zero_rows()
    return rows


MAP_TEST_ROWS = _map_test_rows()


def vectors(rows) -> list:
    """The CoefficientVector of each coefficient row; its ``row`` has the same bytes."""
    cs = [CoefficientVector(r[0].real, r[1], r[2], r[3].real) for r in rows]
    assert np.concatenate([c.row for c in cs]).tobytes() == np.asarray(rows).tobytes()
    return cs


def subnormal_rows() -> np.ndarray:
    """Pure pole and mixed inputs whose off-diagonal parts take every combination of signed zeros and subnormals."""
    parts = [0.0, -0.0, 5e-324, -1.5e-323]
    values = [complex(re, im) for re in parts for im in parts]
    subnormal = [any(0 < abs(p) < 1e-300 for p in (z.real, z.imag)) for z in values]
    pairs = [(a, b) for a, sa in zip(values, subnormal) for b, sb in zip(values, subnormal) if sa or sb]
    c12, c21 = (np.array(side) for side in zip(*pairs))
    n = len(pairs)
    poles = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
    return np.concatenate(
        [coefficient_rows(np.full(n, c11), c12, c21, np.full(n, c22)) for c11, c22 in poles]
    )


# (index in FIVE_PREPARATIONS, input): subnormal parts, which the halving of the mapped vector rounds
SUBNORMAL_INPUTS = {
    "automatic, c12 = 5e-324": (4, CoefficientVector.from_components(0.5, 5e-324)),
    "Bell 2, c12 = 1.5e-323j": (1, CoefficientVector.from_components(0.5, 1.5e-323j)),
}


class TestIdentityPath:
    """A known preparation's comparison is its session state without correction; the 8x8 products stay the oracle."""

    @pytest.mark.parametrize("rows", sorted(MAP_TEST_ROWS))
    @pytest.mark.parametrize("k", range(5))
    def test_one_row_equals_the_eight_by_eight_products(self, k, rows):
        u = FIVE_PREPARATIONS[k]
        c = MAP_TEST_ROWS[rows]
        raw, (trace, total), (ansatz, sandwich) = _both_updates(u.sender_operator, c)
        assert (total.real / trace.real == u.diagonal_weight()).all()
        for i, vector in enumerate(vectors(c)):
            record = compare_conventions(u, vector)
            assert record.ansatz.tobytes() == ansatz[i].tobytes()
            assert record.sandwich.tobytes() == sandwich[i].tobytes()
            assert record.max_abs_diff == 0.0 == np.abs(ansatz[i] - sandwich[i]).max()
            assert record.prenorm_ratio == u.diagonal_weight()

    @pytest.mark.parametrize("k", range(5))
    def test_fresh_known_tensors_take_no_eight_by_eight_product(self, k, monkeypatch):
        u = preparation_from_bell(k + 1) if k < 4 else automatic_preparation()
        assert all(u is not shared for shared in protocol._BELL_TENSORS.values())
        c = CoefficientVector.from_components(0.3, 0.2 - 0.1j)
        expected = reference_compare(FIVE_PREPARATIONS[k], c)

        def refuse(*_):
            raise AssertionError("8x8 products on a known tensor")

        monkeypatch.setattr(conventions, "_compare_rows", refuse)
        assert_same_bits(compare_conventions(u, c), expected)
        assert "sender_operator" not in vars(u)

    def test_near_known_tensor_keeps_its_eight_by_eight_bits(self):
        # within EQ_TOL of Bell 2, so it classifies as Bell 2, but its products round differently
        bell2 = preparation_from_bell(2)
        near = PreparationTensor(bell2.u + 1e-14, normalized=True)
        assert near.bell_index == 2 and near._exact_ratio is None
        x, y, z = SAMPLERS["mixed_uniform"](np.random.default_rng(5), 200)
        cs = [CoefficientVector.from_bloch(x[i], y[i], z[i]) for i in range(len(x))]
        records = [compare_conventions(near, c) for c in cs]
        for c, record, row in zip(cs, records, kernel_results(near, cs)):
            assert_same_bits(record, reference_compare(near, c))
            assert_same_bits(record, row)
        assert any(record.prenorm_ratio != 1.0 for record in records)

    @pytest.mark.parametrize("k", range(5))
    def test_subnormal_inputs(self, k):
        u = FIVE_PREPARATIONS[k]
        cs = vectors(subnormal_rows()) + [c for j, c in SUBNORMAL_INPUTS.values() if j == k]
        for c in cs:
            record = compare_conventions(u, c)
            assert record.max_abs_diff == 0.0
            assert record.prenorm_ratio == u.diagonal_weight()
            session = run_session(c, u, ClassicalMessage.pre_agreed(), False)
            assert record.ansatz.tobytes() == session.bob_state.tobytes()
            for reference in (renormalize(alice_prepare(u, c)), prepare_sandwich(u, c)):
                assert np.abs(record.ansatz - reference).max() <= AGREE_TOL

    @pytest.mark.parametrize("k", range(5))
    def test_same_bits_when_numpy_raises(self, k):
        # the map's product underflows on the subnormal coherence; the comparison ignores numpy's error state
        u, c = FIVE_PREPARATIONS[k], CoefficientVector.from_components(0.5, 5e-324)
        expected = compare_conventions(u, c)
        with np.errstate(all="raise"):
            assert_same_bits(compare_conventions(u, c), expected)

    def test_the_eight_by_eight_path_rounds_twice_on_subnormal_parts(self):
        # so on such inputs the 8x8 products are an oracle within AGREE_TOL, not bit for bit
        k, c = SUBNORMAL_INPUTS["Bell 2, c12 = 1.5e-323j"]
        u = FIVE_PREPARATIONS[k]
        assert 0.0 < np.abs(renormalize(alice_prepare(u, c)) - prepare_sandwich(u, c)).max() <= AGREE_TOL
        assert compare_conventions(u, c).max_abs_diff == 0.0


def general_tensor() -> PreparationTensor:
    """A positive definite sender-pair tensor with no exact binary structure, which takes the 8x8 path."""
    rng = np.random.default_rng(11)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return sender_pair_tensor(g @ g.conj().T + np.eye(4))


class TestRecord:
    """``compare_conventions`` sets its record's fields directly; it must equal the constructor's record."""

    @pytest.mark.parametrize("k", range(6))
    def test_equals_the_constructed_record(self, k):
        u = (FIVE_PREPARATIONS + [general_tensor()])[k]
        assert (u._exact_ratio is None) == (k == 5)
        c = CoefficientVector.from_components(0.3, 0.2 - 0.1j)
        record = compare_conventions(u, c)
        if k < 5:
            state = _row_state(u.coefficient_map, c.row)[1]
            built = ConventionResult(ansatz=state, sandwich=state, max_abs_diff=0.0, prenorm_ratio=u.diagonal_weight())
        else:
            ansatz, sandwich, diff, ratio = _compare_rows(u, c.row)
            built = ConventionResult(
                ansatz=ansatz[0], sandwich=sandwich[0], max_abs_diff=float(diff[0]), prenorm_ratio=float(ratio[0])
            )
        assert_same_bits(record, built)
        assert type(record) is ConventionResult
        assert type(record.max_abs_diff) is float and type(record.prenorm_ratio) is float
        assert repr(record) == repr(built)
        assert dataclasses.asdict(record).keys() == dataclasses.asdict(built).keys()
        for field in ("ansatz", "sandwich", "max_abs_diff", "prenorm_ratio"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, getattr(record, field))

    @pytest.mark.parametrize("k", range(5))
    def test_the_shared_state_cannot_be_written(self, k):
        # one array is both fields, so writing the ansatz must not be able to change the sandwich
        record = compare_conventions(FIVE_PREPARATIONS[k], CoefficientVector.from_components(0.3, 0.2 - 0.1j))
        assert record.ansatz is record.sandwich
        with pytest.raises(ValueError):
            record.ansatz.setflags(write=True)
        assert not can_be_made_writable(record.ansatz)


class TestBellIndexArgument:
    @pytest.mark.parametrize("index", [1, 2, 3, 4, np.int64(2)])
    def test_index_compares_like_its_tensor(self, index):
        u = preparation_from_bell(int(index))
        c = CoefficientVector.from_components(0.3, 0.2 - 0.1j)
        assert_same_bits(compare_conventions(index, c), compare_conventions(u, c))
        assert sandwich_numerator(index, c).tobytes() == sandwich_numerator(u, c).tobytes()
        assert prepare_sandwich(index, c).tobytes() == prepare_sandwich(u, c).tobytes()
        for value, wanted in zip(_compare_rows(index, c.row), _compare_rows(u, c.row), strict=True):
            assert value.tobytes() == wanted.tobytes()

    @pytest.mark.parametrize("prep", [True, "x", None, 0, 5])
    def test_anything_else_raises_the_boundary_message(self, prep):
        c = CoefficientVector.from_components(0.3)
        for call in (compare_conventions, sandwich_numerator, prepare_sandwich, lambda p, c: _compare_rows(p, c.row)):
            with pytest.raises(ValueError, match="^preparation must be a PreparationTensor or an integer Bell index: "):
                call(prep, c)


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
# would overflow, and its two-sided product would for every input. Such
# weights exceed the magnitude bound, so no tensor holds them.
_OVERFLOWING = _unit(1, 1, _HUGE) + _unit(3, 3, _HUGE) + _unit(1, 3, _HUGE * (1 - 1j)) + _unit(3, 1, _HUGE * (1 + 1j))
# weights whose raw operator of an equatorial input would hold 4.25e307+inf j with trace 0
_ZERO_TRACE_OVERFLOWING = _HUGE * (
    _unit(0, 1, -1 - 1j) + _unit(0, 3, -1 + 1j) + _unit(1, 0, -1) + _unit(2, 1, 1 + 1j) + _unit(2, 3, -1j)
)
# ``_compare_rows`` takes coefficient rows (c11, c12, c21, c22) that no CoefficientVector holds, so
# large rows under small weights stand in for such tensors. Their parts are powers of two, so each
# product is exact or overflows to inf, alike under every BLAS kernel. Under 4 (|00><00| - |11><11|)
# the one-sided raw operator is diag(-2 c22, 2 c11) and the two-sided one diag(8 c22, 8 c11); under
# 4 |00><01| the one-sided one is -2 c11 |0><1|, with trace 0.
_LARGE = 2.0**1023
_SPLIT = _unit(0, 0, 4.0) + _unit(3, 3, -4.0)
_LOWER_POLE = CoefficientVector.from_components(0.0)  # one-sided trace -2 under _SPLIT

# name -> (sender-pair operator, inputs, index of the lowest failing row, its message); an input is a
# CoefficientVector, or a coefficient row that only the batch kernel takes
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
    # the one-sided raw operator overflows to inf, and the next row's trace is negative
    "non-finite raw operator": (_SPLIT, [[_LARGE, 0, 0, 0], _LOWER_POLE], 0, "matrix contains NaN or Inf entries"),
    # A nan total is an annihilation, not a result: the first row's one-sided
    # trace is 2**1023 and its two-sided total inf - inf. It fails the last
    # check and the next row the first, and the lower row is reported.
    "nan two-sided total": (
        _SPLIT,
        [[_LARGE / 4, 0, 0, -_LARGE / 4], [_LARGE, 0, 0, 0]],
        0,
        "two-sided update annihilated the ensemble: total trace (nan+nanj)",
    ),
    # The raw operator's off-diagonal entry overflows (-inf) while its trace
    # is 0: the finite check must come before the trace checks.
    "non-finite raw operator with zero trace": (
        _unit(0, 1, 4.0), [[_LARGE, 0, 0, 0]], 0, "matrix contains NaN or Inf entries"
    ),
    # the lower row fails a later check than the higher row
    "annihilation before a non-finite row": (
        _SPLIT,
        [_LOWER_POLE, [_LARGE, 0, 0, 0]],
        0,
        "preparation annihilated the ensemble: trace -2.000e+00 <= 1e-09",
    ),
}


def _rows(inputs) -> np.ndarray:
    return np.array([c.as_vector() if isinstance(c, CoefficientVector) else c for c in inputs], dtype=complex)


class TestFirstFailure:
    @pytest.mark.parametrize("case", sorted(FIRST_FAILURES))
    def test_lowest_failing_row_raises_its_message(self, case):
        p, cs, row, message = FIRST_FAILURES[case]
        u = sender_pair_tensor(p)
        rows = _rows(cs)
        if isinstance(cs[row], CoefficientVector):
            # the rows before it pass
            for c in cs[:row]:
                reference_compare(u, c)
            calls = (lambda: reference_compare(u, cs[row]), lambda: compare_conventions(u, cs[row]))
        else:  # only the batch kernel takes the row, alone or in the batch
            _compare_rows(u, rows[:row])
            calls = (lambda: _compare_rows(u, rows[row : row + 1]),)
        for call in calls:
            with pytest.raises(ValueError) as one:
                call()
            assert str(one.value) == message
        with pytest.raises(ValueError) as batch:
            _compare_rows(u, rows)
        assert str(batch.value) == message

    @pytest.mark.parametrize("case", sorted(FIRST_FAILURES))
    def test_one_row_as_two(self, case):
        # a one-row call takes the scalar checks, the row stacked twice the batch checks
        p, cs, row, _ = FIRST_FAILURES[case]
        u = sender_pair_tensor(p)
        rows = _rows(cs)
        for r in rows[:row]:  # bitwise
            for value, column in zip(_compare_rows(u, r[None]), _compare_rows(u, np.stack([r] * 2))):
                assert value[0].tobytes() == column[0].tobytes()
        with pytest.raises(ValueError) as two:
            _compare_rows(u, np.stack([rows[row]] * 2))
        with pytest.raises(ValueError) as one:
            _compare_rows(u, rows[row : row + 1])
        assert str(one.value) == str(two.value)
        if isinstance(cs[row], CoefficientVector):
            with pytest.raises(ValueError) as vector:
                compare_conventions(u, cs[row])
            assert str(vector.value) == str(one.value)

    @pytest.mark.parametrize(
        "p, entry",
        [(_OVERFLOWING, "(1.7e+308+0j)"), (_ZERO_TRACE_OVERFLOWING, "(-1.7e+308-1.7e+308j)")],
    )
    def test_overflowing_weights_fail_the_bound(self, p, entry):
        # the tensors the overflow cases above used to take
        with pytest.raises(ValueError) as info:
            sender_pair_tensor(p)
        assert str(info.value) == f"entry {entry} exceeds the magnitude bound 2**400 = 2.582e+120"

    def test_the_zero_trace_row_overflows_off_the_diagonal(self):
        p, cs, _, _ = FIRST_FAILURES["non-finite raw operator with zero trace"]
        raw, (trace, _), _ = _both_updates(sender_pair_tensor(p).sender_operator, _rows(cs))
        assert trace.tolist() == [0j] and np.isneginf(raw[0, 0, 1].real) and np.isfinite(raw[0].ravel()[[0, 2, 3]]).all()


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
