import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ensemble_teleport import (
    BELL_INDICES,
    ClassicalMessage,
    CoefficientVector,
    PreparationTensor,
    SessionRecord,
    alice_prepare,
    automatic_preparation,
    average_fidelity,
    bell_projector,
    bloch_coefficient_rows,
    bob_correct,
    coefficient_rows,
    correction_unitary,
    decompose_total_state,
    matrix_unit,
    pauli,
    preparation_from_bell,
    renormalize,
    resolve_preparation,
    run_session,
    sandwich_numerator,
    total_state,
    transformation_matrix,
)
from ensemble_teleport.linalg import BOUNDED, MAX_ENTRY, embed_sender_pair, trace_out_sender_pair
from conftest import bloch_coefficient_strategy, random_coefficients

BELL1_COEFFICIENT_MAP = np.array(
    [
        [0.0, 0.0, 0.0, 0.5],
        [0.0, 0.0, -0.5, 0.0],
        [0.0, -0.5, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)


class TestCoefficientVector:
    def test_trace_violation(self):
        with pytest.raises(ValueError, match="trace constraint"):
            CoefficientVector(0.5, 0.0, 0.0, 0.6)

    def test_negative_diagonal(self):
        with pytest.raises(ValueError, match="nonnegativity"):
            CoefficientVector(-0.1, 0.0, 0.0, 1.1)

    def test_hermiticity_violation(self):
        with pytest.raises(ValueError, match="hermiticity"):
            CoefficientVector(0.5, 0.2j, 0.2j, 0.5)

    def test_hermiticity_message_prints_python_complex(self):
        message = "hermiticity constraint violated: c21 = (0.100001-0.2j) is not conj(c12) = (0.1-0.2j)"
        with pytest.raises(ValueError) as one:
            CoefficientVector(0.5, 0.1 + 0.2j, 0.100001 - 0.2j, 0.5)
        assert str(one.value) == message
        c12, c21 = np.array([0.1 + 0.2j] * 3), np.array([0.1 - 0.2j, 0.100001 - 0.2j, 0.1 - 0.2j])
        with pytest.raises(ValueError) as rows:
            coefficient_rows(np.full(3, 0.5), c12, c21, np.full(3, 0.5))
        assert str(rows.value) == message

    def test_positivity_violation(self):
        with pytest.raises(ValueError, match="positivity"):
            CoefficientVector.from_components(0.5, 0.6)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            CoefficientVector(np.nan, 0.0, 0.0, 1.0)

    def test_basis_state_matrix(self):
        c = CoefficientVector.from_components(1.0)
        assert np.array_equal(c.matrix(), matrix_unit(1, 1))

    def test_maximally_mixed_matrix(self):
        c = CoefficientVector.from_components(0.5)
        assert np.array_equal(c.matrix(), np.eye(2, dtype=complex) / 2)

    def test_pure_boundary_is_projector(self):
        c = CoefficientVector(0.5, 0.5, 0.5, 0.5)
        m = c.matrix()
        assert np.max(np.abs(m @ m - m)) < 1e-12
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.max(np.abs(m - np.outer(plus, plus))) < 1e-12
        assert c.is_pure()

    def test_from_bloch_round_trip(self):
        c = CoefficientVector.from_bloch(0.3, -0.4, 0.5)
        m = c.matrix()
        assert abs(np.trace(m) - 1.0) < 1e-15
        assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_from_bloch_rejects_long_vectors(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            CoefficientVector.from_bloch(1.0, 1.0, 0.0)

    def test_as_vector_order(self):
        c = CoefficientVector.from_components(0.75, 0.125 + 0.25j)
        assert np.array_equal(c.as_vector(), [0.75, 0.125 + 0.25j, 0.125 - 0.25j, 0.25])


class TestCoefficientRow:
    """The cached (1, 4) row that the kernels read, next to the fresh ``as_vector()``."""

    C = (0.75, 0.125 + 0.25j)

    def test_row_is_read_only_and_bitwise_as_vector(self):
        c = CoefficientVector.from_components(*self.C)
        assert c.row.shape == (1, 4) and c.row.dtype == complex
        assert c.row.tobytes() == c.as_vector()[None].tobytes()
        assert c.row is c.row
        assert not c.row.flags.writeable
        with pytest.raises(ValueError):
            c.row[0, 0] = 9.0

    def test_as_vector_is_fresh_and_writable(self):
        c = CoefficientVector.from_components(*self.C)
        before = run_session(c, automatic_preparation(), ClassicalMessage.pre_agreed(), bob_acts=False)
        vector = c.as_vector()
        assert vector is not c.as_vector() and not np.shares_memory(vector, c.row)
        vector[:] = [2.0, 3.0, 4.0, 5.0]  # writing to it changes no later session
        after = run_session(c, automatic_preparation(), ClassicalMessage.pre_agreed(), bob_acts=False)
        assert after.bob_state.tobytes() == before.bob_state.tobytes()
        assert after.fidelity == before.fidelity
        assert c.as_vector().tobytes() == c.row.tobytes()

    def test_fields_equality_hash_and_repr_ignore_the_row(self):
        a, b = CoefficientVector.from_components(*self.C), CoefficientVector.from_components(*self.C)
        text, key = repr(a), hash(a)
        a.row  # cache the row on one of two equal vectors
        assert [f.name for f in dataclasses.fields(CoefficientVector)] == ["c11", "c12", "c21", "c22"]
        assert a == b and hash(a) == hash(b) == key
        assert repr(a) == repr(b) == text == "CoefficientVector(c11=0.75, c12=(0.125+0.25j), c21=(0.125-0.25j), c22=0.25)"
        assert dataclasses.astuple(a) == (0.75, 0.125 + 0.25j, 0.125 - 0.25j, 0.25)


def _edge(c11, excess):
    """(c11, c12, c21, c22) with |c12|^2 = c11*c22 + excess."""
    c12 = np.sqrt(c11 * (1.0 - c11) + excess) * np.exp(0.7j)
    return (c11, c12, np.conj(c12), 1.0 - c11)


# Each invariant just inside and just outside its EQ_TOL margin, plus plain cases.
COEFFICIENT_CASES = {
    "maximally_mixed": (0.5, 0.0, 0.0, 0.5),
    "c11_one": (1.0, 0.0, 0.0, 0.0),
    "c11_zero": (0.0, 0.0, 0.0, 1.0),
    "pure": _edge(0.3, 0.0),
    "positivity_inside": _edge(0.3, 0.9e-12),
    "positivity_outside": _edge(0.3, 1.1e-12),
    "positivity_far": (0.5, 0.6, 0.6, 0.5),
    "trace_inside": (0.5 + 0.9e-12, 0.0, 0.0, 0.5),
    "trace_outside": (0.5 + 1.1e-12, 0.0, 0.0, 0.5),
    "nonnegativity_inside": (-0.9e-12, 0.0, 0.0, 1.0 + 0.9e-12),
    "nonnegativity_outside": (-1.1e-12, 0.0, 0.0, 1.0 + 1.1e-12),
    "hermiticity_inside": (0.5, 0.1, 0.1 + 0.9e-12, 0.5),
    "hermiticity_outside": (0.5, 0.1, 0.1 + 1.1e-12, 0.5),
    "nan": (np.nan, 0.0, 0.0, 0.5),
    "inf_coherence": (0.5, complex(np.inf, 0.0), 0.0, 0.5),
    # finite, but |c12|^2 overflows (abs(c12) ** 2 on a Python float raises OverflowError)
    "positivity_square_overflows": (0.5, 1e300, 1e300, 0.5),
    # finite, but already |c12| overflows
    "positivity_modulus_overflows": (0.5, complex(1.7e308, 1.7e308), complex(1.7e308, -1.7e308), 0.5),
}
ACCEPTED = {
    "maximally_mixed", "c11_one", "c11_zero", "pure", "positivity_inside",
    "trace_inside", "nonnegativity_inside", "hermiticity_inside",
}
BLOCH_CASES = {
    "unit": (0.6, 0.0, 0.8),
    "long_inside": (0.0, 0.0, 1.0 + 1e-13),
    "long_outside": (0.0, 0.0, 1.0 + 1e-11),
    "oblique_outside": (0.6, -0.6, 0.6),
}


def _scalar(make, args):
    try:
        return make(*args).as_vector().tobytes()
    except ValueError as exc:
        return str(exc)


def _batch(make, args, valid):
    """``make`` on three rows with ``args`` in the middle: the row's bytes, or the message."""
    try:
        return make(*(np.array([v, a, v]) for a, v in zip(args, valid)))[1].tobytes()
    except ValueError as exc:
        return str(exc)


VALID_COEFFICIENTS = (0.5, 0.1 + 0.2j, 0.1 - 0.2j, 0.5)
VALID_BLOCH = (0.1, -0.2, 0.3)


class TestCoefficientRows:
    """The column runner on a row among valid rows and CoefficientVector for one vector agree."""

    @pytest.mark.parametrize("name", sorted(COEFFICIENT_CASES))
    def test_same_verdict_as_the_constructor(self, name):
        args = COEFFICIENT_CASES[name]
        scalar = _scalar(CoefficientVector, args)
        assert _batch(coefficient_rows, args, VALID_COEFFICIENTS) == scalar
        assert isinstance(scalar, bytes) == (name in ACCEPTED)

    @pytest.mark.parametrize("name", sorted(BLOCH_CASES))
    def test_same_verdict_as_from_bloch(self, name):
        args = BLOCH_CASES[name]
        scalar = _scalar(CoefficientVector.from_bloch, args)
        assert _batch(bloch_coefficient_rows, args, VALID_BLOCH) == scalar
        assert isinstance(scalar, bytes) == (name in {"unit", "long_inside"})

    def test_batch_raises_for_its_first_invalid_row(self):
        names = sorted(COEFFICIENT_CASES)
        columns = [np.array(column) for column in zip(*(COEFFICIENT_CASES[n] for n in names))]
        first_invalid = next(n for n in names if isinstance(_scalar(CoefficientVector, COEFFICIENT_CASES[n]), str))
        with pytest.raises(ValueError) as info:
            coefficient_rows(*columns)
        assert str(info.value) == _scalar(CoefficientVector, COEFFICIENT_CASES[first_invalid])

    def test_valid_batch_equals_the_constructor_rows(self, rng):
        inputs = random_coefficients(rng, 50)
        rows = coefficient_rows(*(np.array([getattr(c, k) for c in inputs]) for k in ("c11", "c12", "c21", "c22")))
        assert rows.tobytes() == np.array([c.as_vector() for c in inputs]).tobytes()

    @pytest.mark.parametrize("part", ["c11", "c22"])
    @pytest.mark.parametrize(
        "value",
        [0.5 + 0.3j, np.complex128(0.5 + 0.3j), np.complex128(0.5), np.complex64(0.5), np.array(0.5 + 0j)],
        ids=["complex", "complex128", "complex128 real", "complex64", "0-d complex array"],
    )
    def test_complex_diagonal_raises_the_constructor_error(self, part, value):
        # numpy used to drop the imaginary part with a ComplexWarning
        parts = dict(zip(("c11", "c12", "c21", "c22"), VALID_COEFFICIENTS), **{part: value})
        message = f"^{part} must be real, got a complex value$"
        with pytest.raises(TypeError, match=message):
            CoefficientVector(**parts)
        with pytest.raises(TypeError, match=message):
            coefficient_rows(*(np.array([v, v]) for v in parts.values()))
        if part == "c11":
            with pytest.raises(TypeError, match=message):
                CoefficientVector.from_components(value, 0.1 + 0.2j)

    @pytest.mark.parametrize(
        "args",
        [
            (0.5, 0.0, 0.0, 0.5),  # scalars
            (2.0, 0.0, 0.0, 0.5),  # an invalid scalar row
            (0.5, np.zeros(3), 0.0, 0.5),  # scalars with an array
            (np.full(2, 0.5), np.zeros(3), np.zeros(3), np.full(2, 0.5)),
            (np.full((2, 2), 0.5), np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), 0.5)),
        ],
    )
    def test_rejects_other_than_equal_1d_arrays(self, args):
        with pytest.raises(ValueError, match="must be 1-d arrays of equal length"):
            coefficient_rows(*args)

    @pytest.mark.parametrize("args", [(0.0, 0.0, 1.0), (np.zeros(2), np.zeros(3), np.ones(3))])
    def test_bloch_rejects_other_than_equal_1d_arrays(self, args):
        with pytest.raises(ValueError, match="must be 1-d arrays of equal length"):
            bloch_coefficient_rows(*args)


class TestTotalState:
    def test_trace_one(self, coefficient_samples):
        for c in coefficient_samples[:20]:
            assert abs(np.trace(total_state(c)) - 1.0) < 1e-12

    def test_sixteen_term_expansion(self, rng):
        c = random_coefficients(rng, 1)[0]
        cs = {(1, 1): c.c11, (1, 2): c.c12, (2, 1): c.c21, (2, 2): c.c22}
        shared = {
            (1, 1, 2, 2): 0.5,
            (1, 2, 2, 1): -0.5,
            (2, 1, 1, 2): -0.5,
            (2, 2, 1, 1): 0.5,
        }
        expected = np.zeros((8, 8), dtype=complex)
        for (k, l), ckl in cs.items():
            for (ar, ac, br, bc), weight in shared.items():
                expected += ckl * weight * np.kron(
                    matrix_unit(k, l), np.kron(matrix_unit(ar, ac), matrix_unit(br, bc))
                )
        assert np.max(np.abs(total_state(c) - expected)) < 1e-14

    def test_marginal_is_shared_pair(self, rng):
        c = random_coefficients(rng, 1)[0]
        marginal = np.trace(total_state(c).reshape(2, 4, 2, 4), axis1=0, axis2=2)
        assert np.max(np.abs(marginal - bell_projector(4))) < 1e-12

    def test_receiver_marginal_is_maximally_mixed(self, coefficient_samples):
        # before any measurement the receiver's half carries nothing of the input
        for c in coefficient_samples[:20]:
            marginal = trace_out_sender_pair(total_state(c))
            assert np.max(np.abs(marginal - 0.5 * np.eye(2))) < 1e-12


class TestDecomposition:
    def test_reconstructs_twice_the_total_state(self, coefficient_samples):
        for c in coefficient_samples:
            decomposition = decompose_total_state(c)
            residual = np.max(np.abs(decomposition.reconstruction() - 2 * total_state(c)))
            assert residual < 1e-12

    def test_fourth_receiver_factor_is_input(self, rng):
        c = random_coefficients(rng, 1)[0]
        decomposition = decompose_total_state(c)
        assert np.array_equal(decomposition.receiver_factors[3], c.matrix())

    def test_offdiagonal_residual_coefficients(self, rng):
        c = random_coefficients(rng, 1)[0]
        block = decompose_total_state(c).residual_terms[(1, 2)]
        # the (1,2) residual is C12 ⊗ [c12 A11⊗B22 + c21 A12⊗B12 + c21 A21⊗B21 + c12 A22⊗B11]
        expected = np.kron(
            matrix_unit(1, 2),
            c.c12 * np.kron(matrix_unit(1, 1), matrix_unit(2, 2))
            + c.c21 * np.kron(matrix_unit(1, 2), matrix_unit(1, 2))
            + c.c21 * np.kron(matrix_unit(2, 1), matrix_unit(2, 1))
            + c.c12 * np.kron(matrix_unit(2, 2), matrix_unit(1, 1)),
        )
        assert np.max(np.abs(block - expected)) < 1e-14


class TestPreparations:
    def test_bell_one_weights(self):
        u = preparation_from_bell(1).u
        expected = np.zeros((2, 2, 2, 2), dtype=complex)
        expected[0, 0, 0, 0] = 0.5
        expected[1, 1, 1, 1] = 0.5
        expected[0, 1, 0, 1] = 0.5
        expected[1, 0, 1, 0] = 0.5
        assert np.array_equal(u, expected)

    @pytest.mark.parametrize("i", BELL_INDICES)
    def test_diagonal_weight_one(self, i):
        assert preparation_from_bell(i).diagonal_weight() == 1.0

    @pytest.mark.parametrize("i", BELL_INDICES)
    def test_matrix_round_trip(self, i):
        u = preparation_from_bell(i)
        assert np.array_equal(u.matrix(), bell_projector(i))

    def test_automatic_matrix_is_twice_fourth_projector(self):
        p = automatic_preparation().matrix()
        assert np.array_equal(p, 2 * bell_projector(4))

    def test_automatic_squares_to_twice_itself(self):
        p = automatic_preparation().matrix()
        assert np.array_equal(p @ p, 2 * p)

    def test_automatic_diagonal_weight_two(self):
        u = automatic_preparation()
        assert u.diagonal_weight() == 2.0
        assert u.normalized is False

    @pytest.mark.parametrize("prep", [*BELL_INDICES, "automatic"])
    def test_diagonal_weight_is_the_squaring_factor(self, prep):
        # each known preparation is a multiple of a rank-one projector, so P @ P = Tr(P) P
        u = automatic_preparation() if prep == "automatic" else resolve_preparation(prep)
        p = u.matrix()
        assert u.diagonal_weight() == np.trace(p).real
        # exactly, signed zeros included: compare_conventions returns 0.0 and this ratio on it
        assert (p @ p).tobytes() == (u.diagonal_weight() * p).tobytes()
        assert u._exact_ratio == u.diagonal_weight() and type(u._exact_ratio) is float

    def test_rejects_a_tensor_of_another_shape(self):
        with pytest.raises(ValueError) as info:
            PreparationTensor(np.zeros((4, 4)))
        assert str(info.value) == "preparation tensor must have shape (2, 2, 2, 2), got (4, 4)"

    def test_normalized_flag_enforced(self):
        bad = np.zeros((2, 2, 2, 2), dtype=complex)
        bad[0, 0, 1, 1] = 1.0
        bad[1, 1, 0, 0] = 1.0  # sums to 2
        with pytest.raises(ValueError, match="sum of u_kkmm"):
            PreparationTensor(u=bad, normalized=True)
        PreparationTensor(u=bad, normalized=False)  # explicit opt-out is fine

    def test_negative_diagonal_rejected_when_normalized(self):
        bad = np.zeros((2, 2, 2, 2), dtype=complex)
        bad[0, 0, 0, 0] = 1.5
        bad[0, 0, 1, 1] = -0.5
        with pytest.raises(ValueError, match="nonnegative diagonal"):
            PreparationTensor(u=bad, normalized=True)

    def test_resolve_classifies(self):
        resolved = resolve_preparation(2)
        assert resolved.bell_index == 2 and not resolved.automatic
        resolved = resolve_preparation(automatic_preparation())
        assert resolved.bell_index is None and resolved.automatic
        resolved = resolve_preparation(preparation_from_bell(3))
        assert resolved.bell_index == 3

    def test_resolve_rejects_bad_index(self):
        with pytest.raises(ValueError, match="Bell index"):
            resolve_preparation(7)

    @pytest.mark.parametrize("prep", [2.7, 4.0, True, "3"])
    def test_resolve_rejects_non_integral_index(self, prep):
        with pytest.raises(ValueError, match="PreparationTensor or an integer Bell index"):
            resolve_preparation(prep)
        c = CoefficientVector.from_components(0.5)
        with pytest.raises(ValueError, match="integer Bell index"):
            run_session(c, prep, ClassicalMessage.two_bits(2), True)
        with pytest.raises(ValueError, match="integer Bell index"):
            average_fidelity(prep, True, n=100)

    def test_resolve_accepts_numpy_integers(self):
        resolved = resolve_preparation(np.int64(2))
        assert resolved.bell_index == 2 and type(resolved.bell_index) is int
        assert resolved is resolve_preparation(2)


# Every function that takes a Bell index checks it through bell.require_bell_index.
BELL_INDEX_TAKERS = {
    "bell_projector": bell_projector,
    "preparation_from_bell": preparation_from_bell,
    "correction_unitary": correction_unitary,
    "ClassicalMessage.two_bits": ClassicalMessage.two_bits,
    "resolve_preparation": resolve_preparation,
}


class TestBellIndexCheck:
    @pytest.mark.parametrize("index", [True, 2.0, "3"])
    @pytest.mark.parametrize("taker", sorted(BELL_INDEX_TAKERS))
    def test_rejects_non_integer(self, taker, index):
        with pytest.raises(ValueError, match=r"Bell index must be an integer in \(1, 2, 3, 4\)"):
            BELL_INDEX_TAKERS[taker](index)

    @pytest.mark.parametrize("taker", sorted(BELL_INDEX_TAKERS))
    def test_numpy_integer_equals_python_integer(self, taker):
        from_numpy = BELL_INDEX_TAKERS[taker](np.int64(2))
        from_python = BELL_INDEX_TAKERS[taker](2)
        if isinstance(from_python, np.ndarray):
            assert np.array_equal(from_numpy, from_python)
        elif taker == "preparation_from_bell":
            assert np.array_equal(from_numpy.u, from_python.u)
        else:
            assert from_numpy == from_python

    def test_message_carries_a_python_int(self):
        assert type(ClassicalMessage.two_bits(np.int64(3)).index) is int


class TestAlicePrepare:
    def test_bell_one_gives_conjugated_quarter(self, coefficient_samples):
        s1, s3 = pauli(1), pauli(3)
        u = preparation_from_bell(1)
        for c in coefficient_samples[:25]:
            raw = alice_prepare(u, c)
            expected = 0.25 * (s3 @ s1 @ c.matrix() @ s1 @ s3)
            assert np.max(np.abs(raw - expected)) < 1e-13

    def test_bell_four_gives_quarter_input(self, rng):
        u = preparation_from_bell(4)
        for c in random_coefficients(rng, 10):
            raw = alice_prepare(u, c)
            assert np.max(np.abs(raw - 0.25 * c.matrix())) < 1e-13

    def test_automatic_gives_half_input(self, rng):
        u = automatic_preparation()
        for c in random_coefficients(rng, 10):
            raw = alice_prepare(u, c)
            assert np.max(np.abs(raw - 0.5 * c.matrix())) < 1e-13

    @pytest.mark.parametrize("i", BELL_INDICES)
    def test_projective_trace_quarter(self, i, rng):
        u = preparation_from_bell(i)
        for c in random_coefficients(rng, 25):
            assert abs(np.trace(alice_prepare(u, c)).real - 0.25) < 1e-12


class TestRenormalize:
    def test_quarter_conjugated_input(self, rng):
        c = random_coefficients(rng, 1)[0]
        s1, s3 = pauli(1), pauli(3)
        conjugated = s3 @ s1 @ c.matrix() @ s1 @ s3
        assert np.max(np.abs(renormalize(0.25 * conjugated) - conjugated)) < 1e-13

    def test_unit_trace_unchanged(self, rng):
        c = random_coefficients(rng, 1)[0]
        assert np.array_equal(renormalize(c.matrix()), c.matrix())

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="annihilated"):
            renormalize(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "diagonal",
        [[1e308, 1e308], [1e308, 1e308, 1e308, -1.0], [1.7e308] * 8, [0.5 + 1.7e308j, 0.5 + 1.7e308j]],
    )
    def test_overflowing_trace_rejected(self, diagonal):
        # a trace of +inf used to be named as not finite, and before that to warn and return the zero
        # matrix; an overflowed imaginary part was named as a non-real trace
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                renormalize(np.diag(diagonal))
        assert str(info.value) == BOUNDED[1](complex(diagonal[0]))

    @pytest.mark.parametrize("diagonal", [[MAX_ENTRY, MAX_ENTRY], [MAX_ENTRY, MAX_ENTRY, MAX_ENTRY, -1.0], [MAX_ENTRY] * 8])
    def test_trace_at_the_bound_divides(self, diagonal):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = renormalize(np.diag(diagonal))
        m = np.diag(diagonal).astype(complex)
        assert state.tobytes() == (m / complex(np.trace(m)).real).tobytes()

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_divides_by_the_numpy_trace(self, n, rng):
        for _ in range(50):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = m @ m.conj().T * rng.uniform(0.1, 10.0)
            assert renormalize(m).tobytes() == (m / complex(np.trace(m)).real).tobytes()


class TestTransformationMatrix:
    def test_bell_one_equals_antidiagonal_half(self):
        t = transformation_matrix(preparation_from_bell(1))
        assert np.array_equal(t, BELL1_COEFFICIENT_MAP)

    def test_automatic_is_identity(self):
        t = transformation_matrix(automatic_preparation())
        assert np.array_equal(t, np.eye(4, dtype=complex))

    @pytest.mark.parametrize("prep", [1, 2, 3, 4, "aut"])
    def test_operator_path_matches_vector_path(self, prep, rng):
        u = automatic_preparation() if prep == "aut" else preparation_from_bell(prep)
        t = transformation_matrix(u)
        for c in random_coefficients(rng, 20):
            via_operator = alice_prepare(u, c).reshape(4)
            via_vector = 0.5 * t @ c.as_vector()
            assert np.max(np.abs(via_operator - via_vector)) < 1e-12

    def test_trace_norm_of_transformed_vector_is_half(self, coefficient_samples):
        t = transformation_matrix(preparation_from_bell(1))
        for c in coefficient_samples:
            tc = t @ c.as_vector()
            assert abs((tc[0] + tc[3]).real - 0.5) < 1e-12
            assert abs((tc[0] + tc[3]).imag) < 1e-12

    def test_coefficient_round_trip(self, rng):
        c = random_coefficients(rng, 1)[0]
        assert np.array_equal(c.matrix().reshape(4), c.as_vector())
        assert np.array_equal(c.as_vector().reshape(2, 2), c.matrix())


class TestBobCorrect:
    def test_inverts_first_preparation(self, rng):
        s1, s3 = pauli(1), pauli(3)
        for c in random_coefficients(rng, 10):
            conjugated = s3 @ s1 @ c.matrix() @ s1 @ s3
            assert np.max(np.abs(bob_correct(1, conjugated) - c.matrix())) < 1e-13

    def test_identity_correction(self, rng):
        c = random_coefficients(rng, 1)[0]
        assert np.array_equal(bob_correct(4, c.matrix()), c.matrix())

    def test_inverts_second_preparation(self, rng):
        s1 = pauli(1)
        c = random_coefficients(rng, 1)[0]
        assert np.max(np.abs(bob_correct(2, s1 @ c.matrix() @ s1) - c.matrix())) < 1e-13

    @pytest.mark.parametrize("i", BELL_INDICES)
    def test_round_trip_all_indices(self, i, rng):
        u = preparation_from_bell(i)
        for c in random_coefficients(rng, 15):
            fixed = bob_correct(i, renormalize(alice_prepare(u, c)))
            assert np.max(np.abs(fixed - c.matrix())) < 1e-12

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError, match="unit-trace"):
            bob_correct(1, 0.25 * np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            bob_correct(1, np.array([[1.0, 0.5], [0.0, 0.0]]))

    def test_correction_unitary_is_unitary(self):
        for i in BELL_INDICES:
            un = correction_unitary(i)
            assert np.max(np.abs(un @ un.conj().T - np.eye(2))) < 1e-15


SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def coefficient_vectors(draw):
    """Valid coefficient vectors whose zero parts, often drawn, take either sign, in c11, c12 and c21 alike."""
    c11 = draw(st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    bound = math.sqrt(abs(c11 * (1.0 - c11))) / 2.0  # keeps |c12|^2 below c11*c22
    part = SIGNED_ZERO | st.floats(-bound, bound)
    re, im = draw(part), draw(part)
    c21 = complex(draw(SIGNED_ZERO) if re == 0 else re, draw(SIGNED_ZERO) if im == 0 else -im)
    return CoefficientVector(c11, complex(re, im), c21, 1.0 - c11)


# the four Bell preparations, the automatic one and weights with no binary structure
PREPARATIONS = [preparation_from_bell(i) for i in BELL_INDICES] + [
    automatic_preparation(),
    PreparationTensor(np.random.default_rng(5).normal(size=(2, 2, 2, 2, 2)) @ [1.0, 1j], normalized=False),
]


def written_out_correction(index):
    """``correction_unitary`` as an if-chain of fresh Pauli products."""
    s1, s3 = pauli(1), pauli(3)
    if index == 1:
        return s1 @ s3
    if index == 2:
        return s1
    if index == 3:
        return s3
    return np.eye(2, dtype=complex)


class TestReferencePathBits:
    """The one-operator functions read constant operators from tables, with the bits of the products written out."""

    @given(coefficient_vectors())
    def test_receiver_factors(self, c):
        rho, s1, s3 = c.matrix(), pauli(1), pauli(3)
        expected = (s3 @ s1 @ rho @ s1 @ s3, s1 @ rho @ s1, s3 @ rho @ s3, rho)
        factors = decompose_total_state(c).receiver_factors
        assert [f.tobytes() for f in factors] == [e.tobytes() for e in expected]

    @given(coefficient_vectors())
    def test_bob_correct(self, c):
        for i in BELL_INDICES:
            un = written_out_correction(i)
            assert bob_correct(i, c.matrix()).tobytes() == (un @ c.matrix() @ un.conj().T).tobytes()

    @given(coefficient_vectors(), st.sampled_from(PREPARATIONS))
    def test_sender_embedding(self, c, u):
        p8 = embed_sender_pair(u.matrix())
        assert alice_prepare(u, c).tobytes() == trace_out_sender_pair(p8 @ total_state(c)).tobytes()
        assert sandwich_numerator(u, c).tobytes() == trace_out_sender_pair(p8 @ total_state(c) @ p8).tobytes()

    @pytest.mark.parametrize("i", BELL_INDICES)
    def test_correction_unitary_is_a_new_writable_array(self, i):
        rho = CoefficientVector.from_bloch(0.3, -0.2, 0.5).matrix()
        before = bob_correct(i, rho)
        un = correction_unitary(i)
        assert un.tobytes() == written_out_correction(i).tobytes()
        assert un.flags.writeable
        un[...] = 7.0
        assert correction_unitary(i).tobytes() == written_out_correction(i).tobytes()
        assert bob_correct(i, rho).tobytes() == before.tobytes()


class TestSessionMap:
    @pytest.mark.parametrize("i", BELL_INDICES)
    def test_corrected_map_is_half_identity(self, i):
        t = preparation_from_bell(i).session_map(True)
        assert np.max(np.abs(t - 0.5 * np.eye(4))) < 1e-12

    def test_no_correction_returns_preparation_map(self):
        u = preparation_from_bell(1)
        assert np.array_equal(u.session_map(False), transformation_matrix(u))


class TestClassicalMessage:
    def test_bits(self):
        assert ClassicalMessage.two_bits(1).bits == 2
        assert ClassicalMessage.ping().bits == 1
        assert ClassicalMessage.pre_agreed().bits == 0

    def test_two_bits_requires_index(self):
        with pytest.raises(ValueError, match="Bell index"):
            ClassicalMessage("two_bits")

    def test_others_carry_no_index(self):
        with pytest.raises(ValueError, match="no index"):
            ClassicalMessage("pre_agreed", 1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            ClassicalMessage("smoke_signal")

    @pytest.mark.parametrize("variant", [["two_bits"], {"pre_agreed": 0}, 2])
    def test_variant_that_is_not_a_string(self, variant):
        with pytest.raises(ValueError) as info:
            ClassicalMessage(variant)
        assert str(info.value) == (
            f"message variant must be one of ('two_bits', 'one_bit_ping', 'pre_agreed'), got {variant!r}"
        )


class TestRunSession:
    def test_corrected_two_bit_session_is_exact(self, rng):
        for c in random_coefficients(rng, 10, kind="pure"):
            record = run_session(c, 1, ClassicalMessage.two_bits(1), bob_acts=True)
            assert abs(record.fidelity - 1.0) < 1e-12
            assert record.bits_sent == 2

    def test_automatic_session_without_receiver_action(self, rng):
        for c in random_coefficients(rng, 10):
            record = run_session(
                c, automatic_preparation(), ClassicalMessage.pre_agreed(), bob_acts=False
            )
            assert record.bits_sent == 0
            assert np.max(np.abs(record.bob_state - c.matrix())) < 1e-12
            if c.is_pure(tol=1e-9):
                assert abs(record.fidelity - 1.0) < 1e-12

    def test_lazy_mixed_session_is_half(self):
        c = CoefficientVector.from_components(0.5)
        record = run_session(c, 1, ClassicalMessage.ping(), bob_acts=False)
        assert abs(record.fidelity - 0.5) < 1e-12
        assert record.bits_sent == 1

    def test_two_bit_message_must_match_preparation(self):
        c = CoefficientVector.from_components(0.5)
        with pytest.raises(ValueError, match="does not match"):
            run_session(c, 1, ClassicalMessage.two_bits(2), bob_acts=True)
        with pytest.raises(ValueError, match="does not match"):
            run_session(c, automatic_preparation(), ClassicalMessage.two_bits(1), bob_acts=True)

    def test_unknown_preparation_cannot_be_corrected(self):
        u = PreparationTensor(
            u=0.5 * preparation_from_bell(1).u + 0.5 * preparation_from_bell(4).u,
            normalized=True,
        )
        c = CoefficientVector.from_components(0.6, 0.1)
        with pytest.raises(ValueError, match="no correction rule"):
            run_session(c, u, ClassicalMessage.ping(), bob_acts=True)
        record = run_session(c, u, ClassicalMessage.ping(), bob_acts=False)
        assert record.bits_sent == 1

    def test_deterministic_and_pure(self, rng):
        c = random_coefficients(rng, 1)[0]
        first = run_session(c, 3, ClassicalMessage.two_bits(3), bob_acts=True)
        second = run_session(c, 3, ClassicalMessage.two_bits(3), bob_acts=True)
        assert np.array_equal(first.bob_state, second.bob_state)
        assert first.fidelity == second.fidelity
        assert first.bits_sent == second.bits_sent

    def test_does_not_mutate_inputs(self):
        u = preparation_from_bell(2)
        before = u.u.copy()
        c = CoefficientVector.from_components(0.4, 0.2j)
        run_session(c, u, ClassicalMessage.two_bits(2), bob_acts=True)
        assert np.array_equal(u.u, before)

    def test_record_state_is_readonly(self):
        c = CoefficientVector.from_components(0.5)
        record = run_session(c, 4, ClassicalMessage.two_bits(4), bob_acts=True)
        with pytest.raises(ValueError):
            record.bob_state[0, 0] = 9.0

    def test_record_state_cannot_be_written_through_its_base(self):
        c = CoefficientVector.from_components(0.4, 0.2j)
        record = run_session(c, 2, ClassicalMessage.two_bits(2), bob_acts=True)
        for array in base_chain(record.bob_state):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.setflags(write=True)
            with pytest.raises(ValueError):
                array[...] = 0.0


def base_chain(array):
    """``array`` and every array along its ``.base`` chain, which a non-array buffer such as bytes ends."""
    chain = []
    while isinstance(array, np.ndarray):
        chain.append(array)
        array = array.base
    return chain


class TestSessionRecord:
    """A record built directly copies its state and freezes the copy, whatever it is given."""

    STATE = [[0.5, 0.25j], [-0.25j, 0.5]]

    @pytest.mark.parametrize("kind", ["writable array", "read-only view of a writable array", "nested list"])
    def test_copies_and_freezes(self, kind):
        source = np.array(self.STATE, dtype=complex)
        given_state = {
            "writable array": source,
            "read-only view of a writable array": source[:],
            "nested list": [list(row) for row in self.STATE],
        }[kind]
        if kind.startswith("read-only"):
            given_state.setflags(write=False)
        record = SessionRecord(bob_state=given_state, fidelity=0.5, bits_sent=0)
        assert record.bob_state.tobytes() == source.tobytes()
        for array in base_chain(record.bob_state):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.setflags(write=True)
        assert not np.shares_memory(record.bob_state, source)
        source[0, 0] = 9.0
        if kind == "nested list":
            given_state[0][0] = 9.0
        assert record.bob_state[0, 0] == 0.5
        with pytest.raises(ValueError):
            record.bob_state[0, 0] = 1.0


class TestPipelineInvariants:
    @given(c=bloch_coefficient_strategy(), i=st.sampled_from(BELL_INDICES))
    def test_correction_round_trip(self, c, i):
        fixed = bob_correct(i, renormalize(alice_prepare(preparation_from_bell(i), c)))
        assert np.max(np.abs(fixed - c.matrix())) < 1e-12

    @given(c=bloch_coefficient_strategy())
    def test_automatic_path_restores_input(self, c):
        out = renormalize(alice_prepare(automatic_preparation(), c))
        assert np.max(np.abs(out - c.matrix())) < 1e-12

    @given(c=bloch_coefficient_strategy(), i=st.sampled_from(BELL_INDICES))
    def test_operator_and_vector_paths_agree(self, c, i):
        u = preparation_from_bell(i)
        lhs = alice_prepare(u, c).reshape(4)
        rhs = 0.5 * transformation_matrix(u) @ c.as_vector()
        assert np.max(np.abs(lhs - rhs)) < 1e-12
