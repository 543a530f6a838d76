import os

import numpy as np
import pytest

from ensemble_teleport import (
    BELL_INDICES,
    bell_projector,
    bell_vector,
    hermitian_spectrum,
    matrix_unit,
    partial_transpose,
    pauli,
    ppt_entangled,
    require_statistical_operator,
)
from ensemble_teleport import cli
from ensemble_teleport.bell import _ppt_test
from ensemble_teleport.linalg import EIGENVALUE_TOL, _pair_spectra

I4 = np.eye(4, dtype=complex)


def unit_expansion(coeffs):
    """Sum of coeff * (A_unit ⊗ B_unit) over ((arow, acol, brow, bcol), coeff) pairs."""
    total = np.zeros((4, 4), dtype=complex)
    for (ar, ac, br, bc), weight in coeffs:
        total += weight * np.kron(matrix_unit(ar, ac), matrix_unit(br, bc))
    return total


class TestBellVector:
    def test_even_plus(self):
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.max(np.abs(bell_vector("even", "+") - expected)) < 1e-15

    def test_odd_minus(self):
        expected = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.max(np.abs(bell_vector("odd", "-") - expected)) < 1e-15

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_unit_norm(self, parity, sign):
        v = bell_vector(parity, sign)
        assert abs(np.vdot(v, v) - 1.0) < 1e-15

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="parity"):
            bell_vector("mixed", "+")
        with pytest.raises(ValueError, match="sign"):
            bell_vector("even", "0")


class TestBellProjector:
    def test_index_four_matrix_unit_expansion(self):
        expected = 0.5 * unit_expansion(
            [
                ((1, 1, 2, 2), 1),
                ((1, 2, 2, 1), -1),
                ((2, 1, 1, 2), -1),
                ((2, 2, 1, 1), 1),
            ]
        )
        assert np.array_equal(bell_projector(4), expected)

    def test_index_one_matrix_unit_expansion(self):
        expected = 0.5 * unit_expansion(
            [
                ((1, 1, 1, 1), 1),
                ((1, 2, 1, 2), 1),
                ((2, 1, 2, 1), 1),
                ((2, 2, 2, 2), 1),
            ]
        )
        assert np.array_equal(bell_projector(1), expected)

    def test_outer_product_of_vector(self):
        for index, (parity, sign) in zip(
            BELL_INDICES, [("even", "+"), ("even", "-"), ("odd", "+"), ("odd", "-")]
        ):
            v = bell_vector(parity, sign)
            assert np.max(np.abs(bell_projector(index) - np.outer(v, v.conj()))) < 1e-15

    @pytest.mark.parametrize("i", BELL_INDICES)
    def test_idempotent(self, i):
        r = bell_projector(i)
        assert np.max(np.abs(r @ r - r)) < 1e-12

    def test_mutually_orthogonal(self):
        for i in BELL_INDICES:
            for j in BELL_INDICES:
                if i != j:
                    product = bell_projector(i) @ bell_projector(j)
                    assert np.max(np.abs(product)) < 1e-12

    def test_complete(self):
        total = sum(bell_projector(i) for i in BELL_INDICES)
        assert np.max(np.abs(total - I4)) < 1e-12

    @pytest.mark.parametrize("i", BELL_INDICES)
    def test_statistical_operator(self, i):
        r = bell_projector(i)
        assert abs(np.trace(r) - 1.0) < 1e-12
        assert np.max(np.abs(r - r.conj().T)) == 0.0
        assert hermitian_spectrum(r)[-1] >= -1e-12

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="Bell index"):
            bell_projector(5)


class TestPauli:
    @pytest.mark.parametrize("k", [1, 3, np.int64(3)])
    def test_involution(self, k):
        assert np.array_equal(pauli(k) @ pauli(k), np.eye(2, dtype=complex))

    def test_conjugation_of_coefficient_matrix(self):
        # s3 s1 [[c11, c12], [c21, c22]] s1 s3 = [[c22, -c21], [-c12, c11]]
        c11, c12, c21, c22 = 0.3, 0.1 + 0.2j, 0.1 - 0.2j, 0.7
        rho = np.array([[c11, c12], [c21, c22]])
        s1, s3 = pauli(1), pauli(3)
        expected = np.array([[c22, -c21], [-c12, c11]])
        assert np.max(np.abs(s3 @ s1 @ rho @ s1 @ s3 - expected)) < 1e-15

    def test_rejects_other_indices(self):
        with pytest.raises(ValueError, match="pauli"):
            pauli(2)

    @pytest.mark.parametrize("k", [True, np.float64(3.0), 1.0, "1"])
    def test_rejects_non_integers(self, k):
        with pytest.raises(ValueError) as info:
            pauli(k)
        assert str(info.value) == f"only pauli(1) and pauli(3) are defined here, got {k}"


class TestPptEntangled:
    @pytest.mark.parametrize("i", BELL_INDICES)
    def test_bell_projectors_entangled(self, i):
        assert ppt_entangled(bell_projector(i)) is True

    def test_classical_mixture_not_entangled(self):
        sep = 0.5 * np.kron(matrix_unit(1, 1), matrix_unit(1, 1)) + 0.5 * np.kron(
            matrix_unit(2, 2), matrix_unit(2, 2)
        )
        assert ppt_entangled(sep) is False

    def test_dilute_bell_mixture_below_threshold(self):
        # mixing weight 1/4 sits under the 1/3 positivity threshold:
        # min PT eigenvalue (1 - 3w)/4 turns negative only past w = 1/3
        state = 0.25 * bell_projector(1) + 0.75 * I4 / 4
        assert ppt_entangled(state) is False

    def test_threshold_bracketing(self):
        w = 1.0 / 3.0
        just_below = (w - 1e-6) * bell_projector(1) + (1 - w + 1e-6) * I4 / 4
        just_above = (w + 1e-6) * bell_projector(1) + (1 - w - 1e-6) * I4 / 4
        assert ppt_entangled(just_below) is False
        assert ppt_entangled(just_above) is True

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            ppt_entangled(2.0 * bell_projector(1))

    def test_rejects_non_hermitian(self):
        bad = bell_projector(1).copy()
        bad[0, 3] += 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            ppt_entangled(bad)

    def test_rejects_negative_operator(self):
        state = 1.5 * np.kron(matrix_unit(1, 1), matrix_unit(1, 1)) - 0.5 * np.kron(
            matrix_unit(2, 2), matrix_unit(2, 2)
        )
        with pytest.raises(ValueError, match="negative eigenvalue"):
            ppt_entangled(state)

    def test_requires_two_factor_layout(self):
        with pytest.raises(ValueError, match="4x4"):
            ppt_entangled(np.eye(8) / 8)

    def test_entry_beyond_the_largest_double(self):
        # eigvalsh of the Hermitian part would be all NaN; the magnitude bound names the entry first
        op = np.diag([0.25] * 4).astype(complex)
        op[0, 1] = np.finfo(float).max * (1 + 1j)
        op[1, 0] = op[0, 1].conjugate()
        with pytest.raises(ValueError) as info:
            ppt_entangled(op)
        assert str(info.value) == (
            "entry (1.7976931348623157e+308+1.7976931348623157e+308j) exceeds the magnitude bound 2**400 = 2.582e+120"
        )


class TestMatrixUnit:
    def test_product_rule(self):
        # units compose like |i><j| |l><q| = delta_jl |i><q|
        assert np.array_equal(matrix_unit(1, 2) @ matrix_unit(2, 1), matrix_unit(1, 1))
        assert np.max(np.abs(matrix_unit(1, 2) @ matrix_unit(1, 2))) == 0.0

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="indices"):
            matrix_unit(0, 1)

    @pytest.mark.parametrize("row, col", [(1.0, 2), (True, 2), (2, np.float64(1.0)), (1, False)])
    def test_rejects_non_integers(self, row, col):
        with pytest.raises(ValueError) as info:
            matrix_unit(row, col)
        assert str(info.value) == f"matrix unit indices must be 1 or 2, got ({row}, {col})"


def reference_ppt_entangled(op) -> bool:
    """The PPT test composed from the public pieces, with two eigensolves."""
    transposed = partial_transpose(op)
    require_statistical_operator(op)
    return bool(hermitian_spectrum(transposed)[-1] < -EIGENVALUE_TOL)


def haar_qubit_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_qubit_state(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def seeded_states(seed: int) -> list:
    """Two-qubit statistical operators on both sides of the PPT verdict, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    states = []
    for rank in (1, 2, 4, 4, 4):  # random density matrices
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        states.append(rho / np.trace(rho).real)
    for i in BELL_INDICES:  # rotated Werner states just either side of 1/3
        for w in (1.0 / 3.0 - 1e-6, 1.0 / 3.0 + 1e-6):
            u = np.kron(haar_qubit_unitary(rng), haar_qubit_unitary(rng))
            states.append(u @ (w * bell_projector(i) + (1.0 - w) * I4 / 4.0) @ u.conj().T)
    states.extend(bell_projector(i) for i in BELL_INDICES)
    for _ in range(3):  # product states
        a, b = (random_qubit_state(rng) for _ in range(2))
        states.append(np.kron(a, b))
    return states


def raised(f, op):
    try:
        f(op)
    except ValueError as exc:
        return type(exc), str(exc)
    raise AssertionError("no ValueError raised")


def invalid_inputs() -> dict:
    non_hermitian = bell_projector(1).copy()
    non_hermitian[0, 3] += 0.1
    nan = bell_projector(2).copy()
    nan[1, 1] = np.nan
    both = 2.0 * bell_projector(3)
    both[1, 2] += 1e-3j
    return {
        "nan": nan,
        "2x2 state": np.eye(2) / 2,
        "2x2 non-state": np.array([[1.0, 5.0], [0.0, 3.0]]),
        "8x8 state": np.eye(8) / 8,
        "3x3": np.eye(3) / 3,
        "non-square": np.ones((4, 3)) / 4,
        "non-Hermitian": non_hermitian,
        "wrong trace": 2.0 * bell_projector(1),
        "negative eigenvalue": np.diag([1.5, 0.0, 0.0, -0.5]),
        "non-Hermitian and wrong trace": both,
    }


INVALID_INPUTS = invalid_inputs()


class TestPptOneEigensolve:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_verdict_matches_two_solve_reference(self, seed):
        verdicts = []
        for op in seeded_states(seed):
            verdict = ppt_entangled(op)
            assert verdict is reference_ppt_entangled(op)
            verdicts.append(verdict)
        # The seeded set sits on both sides of the threshold.
        assert True in verdicts and False in verdicts

    def test_werner_bracket_verdicts(self):
        werner = seeded_states(5)[5:13]  # the eight Werner states follow the five random ones
        verdicts = [ppt_entangled(op) for op in werner]
        assert verdicts == [False, True] * 4

    @pytest.mark.parametrize("name", list(INVALID_INPUTS))
    def test_invalid_input_raises_as_reference(self, name):
        op = INVALID_INPUTS[name]
        assert raised(ppt_entangled, op) == raised(reference_ppt_entangled, op)

    def test_hermiticity_is_checked_before_trace(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            ppt_entangled(INVALID_INPUTS["non-Hermitian and wrong trace"])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stacked_rows_equal_the_two_solves(self, seed):
        for op in seeded_states(seed):
            spectra = _pair_spectra(op)
            hermitian = 0.5 * (op + op.conj().T)
            assert spectra.shape == (2, 4)
            assert spectra[0].tobytes() == np.linalg.eigvalsh(hermitian).tobytes()
            assert spectra[1].tobytes() == hermitian_spectrum(partial_transpose(op))[::-1].tobytes()

    def test_one_eigensolve_per_test(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert ppt_entangled(bell_projector(1)) is True
        assert calls == [(2, 4, 4)]

    def test_bell_audit_solves_once_per_projector(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(np.shape(a)) or eigvalsh(a))
        assert cli.main(["bell-audit", "--out", os.devnull]) == 0
        # one stacked solve per projector gives both its min_pt_eigenvalue column and its verdict
        assert calls == [(2, 4, 4)] * len(BELL_INDICES)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_verdict_and_smallest_transposed_eigenvalue_share_one_solve(self, seed):
        for op in seeded_states(seed):
            pt_min, verdict = _ppt_test(op)
            assert type(pt_min) is float and pt_min == _pair_spectra(op)[1, 0]
            assert verdict is ppt_entangled(op)
