import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ensemble_teleport import (
    LAYOUT_AB,
    LAYOUT_CAB,
    NonHermitianError,
    SubsystemLayout,
    adjoint,
    automatic_preparation,
    bell_projector,
    embed,
    hermitian_spectrum,
    matmul,
    matrix_unit,
    partial_trace,
    partial_transpose,
    pauli,
    require_statistical_operator,
    spectral_norm,
    tensor,
    trace,
)
from ensemble_teleport.linalg import raise_first_failure, statistical_operator_checks
from conftest import random_hermitian

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
I8 = np.eye(8, dtype=complex)


def complex_matrix_strategy(dim):
    entries = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
    return st.lists(st.tuples(entries, entries), min_size=dim * dim, max_size=dim * dim).map(
        lambda pairs: np.array([re + 1j * im for re, im in pairs]).reshape(dim, dim)
    )


class TestMatmul:
    def test_identity(self):
        assert np.array_equal(matmul(I2, I2), I2)

    def test_pauli_involution(self):
        assert np.array_equal(matmul(pauli(1), pauli(1)), I2)

    def test_pauli_word_times_adjoint(self):
        # (s3 s1)(s3 s1)^dagger expanded by hand: s3 s1 s1 s3 = identity
        word = pauli(3) @ pauli(1)
        assert np.max(np.abs(matmul(word, adjoint(word)) - I2)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="2 vs 4"):
            matmul(I2, I4)

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="NaN or Inf"):
            matmul(bad, I2)


class TestTensor:
    def test_identities(self):
        assert np.array_equal(tensor(I2, I2), I4)

    def test_single_entry_position(self):
        # C11 ⊗ A22 puts its only 1 at the second product-basis position
        result = tensor(matrix_unit(1, 1), matrix_unit(2, 2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        assert np.array_equal(result, expected)

    def test_trace_multiplicative(self, rng):
        a = random_hermitian(rng, 2)
        a = a / np.trace(a)
        b = bell_projector(4)
        assert abs(trace(tensor(a, b)) - 1.0) < 1e-12

    def test_scope_limit(self):
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            tensor(I4, I4)


class TestTrace:
    def test_identity(self):
        assert trace(I4) == 4.0

    def test_bell_projector(self):
        assert abs(trace(bell_projector(4)) - 1.0) == 0.0

    def test_automatic_preparation(self):
        # diagonal of the automatic preparation: 1 at |12>, 1 at |21|
        assert abs(trace(automatic_preparation().matrix()) - 2.0) == 0.0


class TestPartialTrace:
    def test_uncorrelated_factor(self, rng):
        rho_c = random_hermitian(rng, 2)
        rho_c /= np.trace(rho_c)
        product = tensor(rho_c, bell_projector(4))
        reduced = partial_trace(product, LAYOUT_CAB, {"C"})
        assert np.max(np.abs(reduced - bell_projector(4))) < 1e-12

    def test_identity_decomposition(self):
        assert np.array_equal(partial_trace(I8, LAYOUT_CAB, {"C", "A"}), 4 * I2)

    def test_trace_preserved(self, rng):
        m = random_hermitian(rng, 8)
        for labels in ({"C"}, {"A"}, {"B"}, {"C", "A"}, {"A", "B"}):
            reduced = partial_trace(m, LAYOUT_CAB, labels)
            assert abs(np.trace(reduced) - np.trace(m)) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="not in layout"):
            partial_trace(I4, LAYOUT_AB, {"C"})

    def test_full_trace_rejected(self):
        with pytest.raises(ValueError, match="every factor"):
            partial_trace(I4, LAYOUT_AB, {"A", "B"})


class TestAdjoint:
    def test_hermitian_fixed_point(self):
        assert np.array_equal(adjoint(pauli(1)), pauli(1))

    def test_ket_bra_flip(self):
        assert np.array_equal(adjoint(matrix_unit(1, 2)), matrix_unit(2, 1))

    def test_automatic_preparation_self_adjoint(self):
        p = automatic_preparation().matrix()
        assert np.array_equal(adjoint(p), p)


class TestHermitianSpectrum:
    def test_pauli(self):
        assert np.allclose(hermitian_spectrum(pauli(3)), [1.0, -1.0], atol=1e-12)

    def test_rank_one_projector(self):
        assert np.allclose(hermitian_spectrum(bell_projector(4)), [1, 0, 0, 0], atol=1e-12)

    def test_automatic_preparation(self):
        # forced by the squaring identity (eigenvalues in {0, 2}) plus trace 2;
        # cross-checked against the characteristic polynomial: P is 2x a rank-1
        # projector, so det(P - x) = x^3 (2 - x)
        spectrum = hermitian_spectrum(automatic_preparation().matrix())
        assert np.allclose(spectrum, [2, 0, 0, 0], atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_matches_numpy_on_random_hermitian(self, rng, dim):
        for _ in range(20):
            m = random_hermitian(rng, dim)
            ours = hermitian_spectrum(m)
            reference = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.max(np.abs(ours - reference)) < 1e-10

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError) as info:
            hermitian_spectrum(bad)
        assert info.value.asymmetry == 1.0


class TestRequireStatisticalOperator:
    @pytest.mark.parametrize("op", [0.5 * I2, matrix_unit(1, 1), 0.25 * I4, bell_projector(2)])
    def test_accepts_states(self, op):
        require_statistical_operator(op)

    def test_rejects_non_hermitian_first(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            require_statistical_operator(np.array([[1.0, 0.5], [0.0, 3.0]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="unit-trace"):
            require_statistical_operator(0.25 * I2)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_rejects_negative_eigenvalue(self, dim):
        op = np.diag([1.5] + [-0.5] + [0.0] * (dim - 2)).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
            require_statistical_operator(op)

    def test_closed_form_matches_eigensolver_on_2x2(self, rng):
        for _ in range(200):
            h = random_hermitian(rng, 2)
            h = h - (np.trace(h).real - 1.0) / 2.0 * I2
            smallest = np.linalg.eigvalsh(h)[0]
            if smallest < -1e-10:
                with pytest.raises(ValueError, match="negative eigenvalue"):
                    require_statistical_operator(h)
            else:
                require_statistical_operator(h)

    def test_batch_checks_agree_with_one_operator(self, rng):
        ops = [np.array([[1.0, 0.5], [0.0, 0.0]]), 0.25 * I2, np.full((2, 2), np.nan)]
        for _ in range(10):
            h = random_hermitian(rng, 2)
            traceless = h - np.trace(h).real / 2 * I2
            for weight in (0.01, 0.05, 0.2, 1.0):  # unit trace; positive for small weights
                ops.append(I2 / 2 + weight * traceless / np.abs(traceless).max())
        seen = []
        for op in ops:
            verdicts = []
            for check in (
                require_statistical_operator,
                lambda m: raise_first_failure(statistical_operator_checks(np.asarray(m)[None])),
            ):
                try:
                    with np.errstate(invalid="ignore"):
                        check(op)
                    verdicts.append(None)
                except ValueError as exc:
                    verdicts.append(str(exc))
            assert verdicts[0] == verdicts[1]
            seen.append(verdicts[0])
        assert None in seen and any(v and "negative eigenvalue" in v for v in seen)

    def test_batch_raises_for_its_first_failing_operator(self):
        state = 0.5 * I2
        negative = np.diag([1.5, -0.5]).astype(complex)
        asymmetric = np.array([[1.0, 0.5], [0.0, 0.0]])
        for stack, message in (
            ([state, negative, asymmetric], "negative eigenvalue -5.000e-01"),
            ([state, asymmetric, negative], "not Hermitian"),
            ([state, state], None),
        ):
            checks = statistical_operator_checks(np.stack(stack).astype(complex))
            if message is None:
                raise_first_failure(checks)
            else:
                with pytest.raises(ValueError, match=message):
                    raise_first_failure(checks)

    def test_closed_form_at_the_threshold(self):
        for excess, rejected in ((0.9e-10, False), (1.1e-10, True)):
            op = np.diag([1.0 + excess, -excess]).astype(complex)
            if rejected:
                with pytest.raises(ValueError, match="negative eigenvalue"):
                    require_statistical_operator(op)
            else:
                require_statistical_operator(op)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(I2) == 1.0

    def test_pauli(self):
        assert abs(spectral_norm(pauli(1)) - 1.0) < 1e-12

    def test_automatic_preparation(self):
        assert abs(spectral_norm(automatic_preparation().matrix()) - 2.0) < 1e-10


class TestPartialTranspose:
    def test_identity(self):
        assert np.array_equal(partial_transpose(I4, LAYOUT_AB, "A"), I4)

    def test_bell_projector_has_negative_eigenvalue(self):
        pt = partial_transpose(bell_projector(4), LAYOUT_AB, "B")
        assert hermitian_spectrum(pt)[-1] < -1e-10

    def test_separable_diagonal_state_stays_positive(self):
        sep = 0.5 * tensor(matrix_unit(1, 1), matrix_unit(1, 1)) + 0.5 * tensor(
            matrix_unit(2, 2), matrix_unit(2, 2)
        )
        pt = partial_transpose(sep, LAYOUT_AB, "B")
        assert hermitian_spectrum(pt)[-1] >= -1e-12

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="not in layout"):
            partial_transpose(I4, LAYOUT_AB, "C")


class TestEmbed:
    def test_identity(self):
        assert np.array_equal(embed(I4, ("C", "A"), LAYOUT_CAB), I8)

    def test_trace_doubles(self, rng):
        op = random_hermitian(rng, 4)
        assert abs(np.trace(embed(op, ("C", "A"))) - 2 * np.trace(op)) < 1e-12

    def test_respects_factor_order(self):
        # an operator acting on (A, B) leaves the leading C factor alone
        op = tensor(matrix_unit(1, 2), pauli(3))
        embedded = embed(op, ("A", "B"), LAYOUT_CAB)
        assert np.array_equal(embedded, np.kron(I2, op))

    def test_commutes_with_disjoint_factor(self, rng):
        on_ca = embed(random_hermitian(rng, 4), ("C", "A"), LAYOUT_CAB)
        on_b = np.kron(I4, random_hermitian(rng, 2))
        assert np.max(np.abs(on_ca @ on_b - on_b @ on_ca)) < 1e-12

    def test_factor_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            embed(I2, ("C", "A"), LAYOUT_CAB)


class TestLayout:
    def test_dim(self):
        assert LAYOUT_CAB.dim == 8
        assert SubsystemLayout(("A",)).dim == 2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SubsystemLayout(("A", "A"))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown subsystem label"):
            SubsystemLayout(("A", "X"))


class TestInvariants:
    @given(x=complex_matrix_strategy(2), y=complex_matrix_strategy(2))
    def test_tensor_partial_trace_adjunction(self, x, y):
        layout = SubsystemLayout(("C", "B"))
        left = partial_trace(tensor(x, y), layout, {"C"})
        assert np.max(np.abs(left - np.trace(x) * y)) < 1e-12 * max(
            1.0, np.max(np.abs(y)) * abs(np.trace(x))
        )

    @given(a=complex_matrix_strategy(4), b=complex_matrix_strategy(4))
    def test_trace_cyclicity(self, a, b):
        scale = max(1.0, np.max(np.abs(a)) * np.max(np.abs(b)))
        assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12 * 16 * scale

    @given(m=complex_matrix_strategy(4))
    def test_gram_matrix_spectrum_nonnegative(self, m):
        spectrum = hermitian_spectrum(m.conj().T @ m)
        assert spectrum[-1] >= -1e-10 * max(1.0, np.max(np.abs(m)) ** 2)

    @given(m=complex_matrix_strategy(4), label=st.sampled_from(["A", "B"]))
    def test_partial_transpose_involution_exact(self, m, label):
        once = partial_transpose(m, LAYOUT_AB, label)
        twice = partial_transpose(once, LAYOUT_AB, label)
        assert np.array_equal(twice, m)
