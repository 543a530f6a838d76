import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ensemble_teleport import (
    BELL_INDICES,
    NonHermitianError,
    automatic_preparation,
    bell_projector,
    hermitian_spectrum,
    matrix_unit,
    partial_transpose,
    pauli,
    ppt_entangled,
    require_statistical_operator,
    spectral_norm,
)
from ensemble_teleport.linalg import (
    BOUNDED,
    EIGENVALUE_TOL,
    FINITE,
    HERMITIAN,
    MAX_ENTRY,
    POSITIVE,
    as_matrix,
    embed_sender_pair,
    qubit_operator_table,
    renormalization_table,
    require_columns,
    stacked_kron,
    trace_out_sender_pair,
)
from conftest import exact_quantities, random_hermitian
from test_check_tables import SPECIAL

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
I8 = np.eye(8, dtype=complex)


# Random matrices come from an integer seed, not from Hypothesis floats: a
# failing seed shrinks in a few steps, while shrinking 16 drawn complex
# entries did not finish (minutes and gigabytes on one failing property).
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def uniform_complex_matrix(rng, dim):
    """dim x dim complex matrix with real and imaginary parts uniform in [-5, 5]."""
    return rng.uniform(-5.0, 5.0, size=(dim, dim)) + 1j * rng.uniform(-5.0, 5.0, size=(dim, dim))


class TestAsMatrix:
    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="NaN or Inf"):
            as_matrix(bad)


class TestExactEntries:
    def test_pauli_involution(self):
        assert np.array_equal(pauli(1) @ pauli(1), I2)

    def test_pauli_word_times_adjoint(self):
        # (s3 s1)(s3 s1)^dagger expanded by hand: s3 s1 s1 s3 = identity
        word = pauli(3) @ pauli(1)
        assert np.max(np.abs(word @ word.conj().T - I2)) == 0.0

    def test_bell_projector_trace(self):
        assert abs(np.trace(bell_projector(4)) - 1.0) == 0.0

    def test_automatic_preparation_trace(self):
        # diagonal of the automatic preparation: 1 at |12>, 1 at |21|
        assert abs(np.trace(automatic_preparation().matrix()) - 2.0) == 0.0

    def test_hermitian_fixed_point(self):
        assert np.array_equal(pauli(1).conj().T, pauli(1))

    def test_ket_bra_flip(self):
        assert np.array_equal(matrix_unit(1, 2).conj().T, matrix_unit(2, 1))

    def test_automatic_preparation_self_adjoint(self):
        p = automatic_preparation().matrix()
        assert np.array_equal(p.conj().T, p)


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

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_asymmetry_is_the_hypot_maximum_of_the_gap(self, dim):
        # libm hypot of the parts, as the check tables take moduli; np.abs differs in the last bit
        rng = np.random.default_rng(1300 + dim)
        for _ in range(300):
            m = uniform_complex_matrix(rng, dim)
            gap = m - m.conj().T
            with pytest.raises(NonHermitianError) as info:
                hermitian_spectrum(m)
            assert info.value.asymmetry == np.hypot(gap.real, gap.imag).max()

    def test_subnormal_entries_keep_their_bits(self):
        # halving before adding would round 5e-324 to 0
        assert hermitian_spectrum(np.array([[5e-324, 0.0], [0.0, 0.0]])).tolist() == [5e-324, 0.0]
        rng = np.random.default_rng(7)
        for dim in (2, 4, 8):
            h = random_hermitian(rng, dim) * 5e-324
            assert hermitian_spectrum(h).tobytes() == np.linalg.eigvalsh(0.5 * (h + h.conj().T))[::-1].tobytes()


DBL_MAX = np.finfo(float).max
HUGE_ENTRIES = [
    0.0, 1e300, -1e300, 1e-300, 5e-324, 9e307, 1.7e308, -1.7e308, DBL_MAX, -DBL_MAX,
    MAX_ENTRY, -MAX_ENTRY, MAX_ENTRY * (1 - 2.0**-52), np.nextafter(MAX_ENTRY, np.inf),
]


def huge_hermitian_operators(seed: int, n: int):
    """Hermitian 4x4 operators with diagonal 0.25 and off-diagonal parts drawn from HUGE_ENTRIES.

    Even draws have real off-diagonal entries; odd ones complex.
    """
    rng = np.random.default_rng(seed)
    upper = np.triu_indices(4, 1)
    for k in range(n):
        op = np.diag([0.25] * 4).astype(complex)
        op.real[upper] = rng.choice(HUGE_ENTRIES, 6)
        if k % 2:
            op.imag[upper] = rng.choice(HUGE_ENTRIES, 6)
        yield op + np.triu(op, 1).conj().T


def bound_message(op):
    """BOUNDED's message for the first entry of ``op`` whose modulus exceeds MAX_ENTRY, else None."""
    with np.errstate(over="ignore"):
        moduli = np.hypot(op.real, op.imag).ravel()
    above = np.flatnonzero(moduli > MAX_ENTRY)
    return BOUNDED[1](op.ravel()[above[0]].item()) if len(above) else None


class TestOverflowingHermitianPart:
    """Finite operators whose Hermitian part 0.5 * (M + M^dagger) would overflow fail the magnitude bound.

    At the bound itself the Hermitian part, the spectrum and the verdict stay finite.
    """

    def test_names_the_invariant(self):
        op = np.diag([0.25] * 4).astype(complex)
        op[0, 1] = op[1, 0] = 1.7e308
        for check in (require_statistical_operator, ppt_entangled, hermitian_spectrum):
            with pytest.raises(ValueError) as info:
                check(op)
            assert str(info.value) == "entry (1.7e+308+0j) exceeds the magnitude bound 2**400 = 2.582e+120"
        op[0, 1] = op[1, 0] = MAX_ENTRY
        for check in (require_statistical_operator, ppt_entangled):
            with pytest.raises(ValueError, match=re.escape("not a statistical operator: negative eigenvalue -2.582e+120")):
                check(op)
        assert hermitian_spectrum(op).tolist() == [MAX_ENTRY, 0.25, 0.25, -MAX_ENTRY]

    def test_overflowing_spectrum_raises(self):
        op = np.full((4, 4), DBL_MAX, dtype=complex)
        np.fill_diagonal(op, 0.25)  # an eigenvalue near 3 * DBL_MAX
        with pytest.raises(ValueError) as info:
            hermitian_spectrum(op)
        assert str(info.value) == "entry (1.7976931348623157e+308+0j) exceeds the magnitude bound 2**400 = 2.582e+120"
        op = np.full((4, 4), MAX_ENTRY, dtype=complex)
        np.fill_diagonal(op, 0.25)  # an eigenvalue near 3 * MAX_ENTRY
        spectrum = hermitian_spectrum(op)
        assert np.isfinite(spectrum).all() and np.isclose(spectrum[0], 3 * MAX_ENTRY)

    def test_seeded_draws_neither_fail_in_the_solver_nor_return_non_finite_values(self):
        verdicts = set()
        for op in huge_hermitian_operators(2026, 2000):
            for check, message in (
                (require_statistical_operator, "not a statistical operator: "),
                (ppt_entangled, "not a statistical operator: "),
                (hermitian_spectrum, None),
            ):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        result = check(op)
                    except ValueError as exc:
                        assert not isinstance(exc, np.linalg.LinAlgError), (op, exc)
                        bound = bound_message(op)
                        assert str(exc) == bound if bound else str(exc).startswith(message), (op, exc)
                        verdicts.add((check.__name__, "bound" if bound else "raised"))
                        continue
                assert bound_message(op) is None, op
                if check is hermitian_spectrum:
                    assert np.isfinite(result).all(), op
                verdicts.add((check.__name__, "returned"))
        assert {("hermitian_spectrum", "bound"), ("hermitian_spectrum", "returned")} <= verdicts
        assert {("require_statistical_operator", "bound"), ("require_statistical_operator", "raised")} <= verdicts


class TestNaNSpectrum:
    """A complex entry whose modulus exceeds the largest double makes eigvalsh return NaN; the bound rejects it first."""

    @staticmethod
    def beyond_the_largest_double():
        op = np.diag([0.25] * 4).astype(complex)
        op[0, 1] = DBL_MAX * (1 + 1j)
        op[1, 0] = op[0, 1].conjugate()
        return op

    def test_eigvalsh_returns_nan_here(self):
        op = self.beyond_the_largest_double()  # Hermitian, so it is its own Hermitian part
        assert np.isnan(np.linalg.eigvalsh(op)).all()
        assert np.isfinite(np.linalg.eigvalsh(0.5 * op)).all()

    def test_require_statistical_operator_reports_the_bound(self):
        # the checks used to solve the halved part and report the doubled eigenvalue, -inf
        with pytest.raises(ValueError) as info:
            require_statistical_operator(self.beyond_the_largest_double())
        assert str(info.value) == (
            "entry (1.7976931348623157e+308+1.7976931348623157e+308j) exceeds the magnitude bound 2**400 = 2.582e+120"
        )

    def test_seeded_complex_draws_never_report_nan(self):
        for op in huge_hermitian_operators(2027, 2000):
            for check in (require_statistical_operator, ppt_entangled):
                message = verdict(check, op)
                assert message is None or "nan" not in message, (op, message)


def verdict(check, op):
    """None if ``check(op)`` returns, else the message of the ValueError it raises."""
    try:
        check(op)
    except ValueError as exc:
        return str(exc)
    return None


class TestOperatorEntryPoints:
    """The n x n checks take the Hermitian part and asymmetry from one place and share one table.

    So require_statistical_operator and ppt_entangled raise the same message,
    and hermitian_spectrum reports the same asymmetry and smallest eigenvalue,
    for each special value of the check-table tests in one entry or in a
    Hermitian pair of entries of an entangled state. Its partial transpose
    has another spectrum, so a verdict taken from the wrong one shows.
    """

    ENTANGLED = np.array([[0.4, 0, 0, 0.3], [0, 0.1, 0, 0], [0, 0, 0.1, 0], [0.3, 0, 0, 0.4]], dtype=complex)
    PLACES = [((0, 0),), ((0, 1),), ((0, 1), (1, 0)), ((1, 2), (2, 1))]

    @pytest.mark.parametrize("value", SPECIAL)
    def test_agree_on_each_special_value(self, value):
        for v in (value, complex(0.0, value), complex(value, value)):
            for place in self.PLACES:
                op = self.ENTANGLED.copy()
                op[place[0]] = v
                if len(place) == 2:
                    op[place[1]] = v.conjugate()
                message = verdict(require_statistical_operator, op)
                assert verdict(ppt_entangled, op) == message, (place, v)
                try:
                    smallest = hermitian_spectrum(op)[-1]
                except NonHermitianError as exc:
                    assert message == HERMITIAN[1](exc.asymmetry), (place, v)
                    continue
                except ValueError as exc:
                    assert str(exc) == message, (place, v, message)
                    continue
                if message is None:
                    assert smallest >= -EIGENVALUE_TOL, (place, v)
                elif "negative eigenvalue" in message:
                    assert message == POSITIVE[1](smallest), (place, v)


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
                lambda m: require_columns((qubit_operator_table, np.asarray(m, dtype=complex)[None])),
            ):
                try:
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
            check = (qubit_operator_table, np.stack(stack).astype(complex))
            if message is None:
                require_columns(check)
            else:
                with pytest.raises(ValueError, match=message):
                    require_columns(check)

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
        assert np.array_equal(partial_transpose(I4), I4)

    def test_bell_projector_has_negative_eigenvalue(self):
        pt = partial_transpose(bell_projector(4))
        assert hermitian_spectrum(pt)[-1] < -1e-10

    def test_separable_diagonal_state_stays_positive(self):
        sep = 0.5 * np.kron(matrix_unit(1, 1), matrix_unit(1, 1)) + 0.5 * np.kron(
            matrix_unit(2, 2), matrix_unit(2, 2)
        )
        pt = partial_transpose(sep)
        assert hermitian_spectrum(pt)[-1] >= -1e-12

    @pytest.mark.parametrize("dim", [2, 8])
    def test_rejects_non_pair_operators(self, dim):
        with pytest.raises(ValueError, match="4x4"):
            partial_transpose(np.eye(dim))

    @pytest.mark.parametrize("i", BELL_INDICES)
    def test_bell_projector_spectrum(self, i):
        # the partial transpose of a maximally entangled projector is half a
        # swap up to local unitaries: eigenvalues 1/2 (three times) and -1/2
        spectrum = hermitian_spectrum(partial_transpose(bell_projector(i)))
        assert np.max(np.abs(spectrum - [0.5, 0.5, 0.5, -0.5])) < 1e-12

    def test_product_operator(self, rng):
        x, y = random_hermitian(rng, 2) + 1j * I2, random_hermitian(rng, 2) + 1j * I2
        assert np.array_equal(partial_transpose(np.kron(x, y)), np.kron(x, y.T))

    def test_commutes_with_adjoint(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(partial_transpose(m.conj().T), partial_transpose(m).conj().T)

    def test_trace_preserved(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.trace(partial_transpose(m)) == np.trace(m)

    def test_covariant_under_first_factor_unitary(self, rng):
        # a unitary on the first qubit passes through the transpose of the second
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        u4 = np.kron(u, I2)
        m = random_hermitian(rng, 4)
        left = partial_transpose(u4 @ m @ u4.conj().T)
        right = u4 @ partial_transpose(m) @ u4.conj().T
        assert np.max(np.abs(left - right)) < 1e-12 * np.max(np.abs(m)) * 16


class TestStackedKron:
    @given(seed=SEEDS)
    def test_bitwise_numpy_kron_of_each_matrix(self, seed):
        rng = np.random.default_rng(seed)
        for a_shape, b_shape in (((5, 2, 2), (4, 4)), ((4, 4), (2, 2)), ((3, 1, 2, 3), (2, 1))):
            a = rng.normal(size=a_shape) + 1j * rng.normal(size=a_shape)
            b = rng.normal(size=b_shape) + 1j * rng.normal(size=b_shape)
            b.flat[0] = -0.0  # signed zeros keep their sign
            stacked = stacked_kron(a, b)
            flat = a.reshape(-1, *a_shape[-2:])
            expected = np.stack([np.kron(m, b) for m in flat]).reshape(stacked.shape)
            assert stacked.shape == a_shape[:-2] + (a_shape[-2] * b_shape[0], a_shape[-1] * b_shape[1])
            assert stacked.tobytes() == expected.tobytes()


class TestEmbedSenderPair:
    def test_identity(self):
        assert np.array_equal(embed_sender_pair(I4), I8)

    def test_trace_doubles(self, rng):
        op = random_hermitian(rng, 4)
        assert abs(np.trace(embed_sender_pair(op)) - 2 * np.trace(op)) < 1e-12

    def test_commutes_with_disjoint_factor(self, rng):
        on_ca = embed_sender_pair(random_hermitian(rng, 4))
        on_b = np.kron(I4, random_hermitian(rng, 2))
        assert np.max(np.abs(on_ca @ on_b - on_b @ on_ca)) < 1e-12

    def test_acts_on_sender_pair_only(self, rng):
        op, x, y = random_hermitian(rng, 4), random_hermitian(rng, 4), random_hermitian(rng, 2)
        left = embed_sender_pair(op) @ np.kron(x, y)
        assert np.max(np.abs(left - np.kron(op @ x, y))) < 1e-12 * 64

    def test_multiplicative(self, rng):
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        product = embed_sender_pair(a) @ embed_sender_pair(b)
        assert np.max(np.abs(product - embed_sender_pair(a @ b))) < 1e-12 * 64

    def test_commutes_with_adjoint(self, rng):
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(embed_sender_pair(op).conj().T, embed_sender_pair(op.conj().T))


class TestTraceOutSenderPair:
    def test_identity_decomposition(self):
        assert np.array_equal(trace_out_sender_pair(I8), 4 * I2)

    @given(seed=SEEDS)
    def test_explicit_sum_over_c_then_a(self, seed):
        # entry (b, d) is the sum over c, then over a, of m[(c, a, b), (c, a, d)]:
        # the same additions in the same order, so the match is exact. Normal
        # draws rather than the simple floats Hypothesis favours, so that a sum
        # in another order would differ in the last bit.
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        expected = np.array([
            [sum(sum(m[4 * c + 2 * a + b, 4 * c + 2 * a + d] for c in (0, 1)) for a in (0, 1))
             for d in (0, 1)]
            for b in (0, 1)
        ])
        reduced = trace_out_sender_pair(m)
        assert reduced.shape == (2, 2)
        assert np.array_equal(reduced, expected)
        assert abs(np.trace(reduced) - np.trace(m)) < 1e-12 * 64 * np.max(np.abs(m))

    @given(seed=SEEDS)
    def test_stack_equals_each_matrix(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(3, 4, 8, 8)) + 1j * rng.normal(size=(3, 4, 8, 8))
        reduced = trace_out_sender_pair(m)
        assert reduced.shape == (3, 4, 2, 2)
        expected = np.stack([trace_out_sender_pair(one) for one in m.reshape(12, 8, 8)])
        assert reduced.tobytes() == expected.reshape(3, 4, 2, 2).tobytes()

    @given(seed=SEEDS)
    def test_uncorrelated_factor(self, seed):
        # Tr_CA (x ⊗ y) = Tr(x) y for x on the sender pair and y on the receiver
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        reduced = trace_out_sender_pair(np.kron(x, y))
        scale = max(1.0, np.max(np.abs(x)) * np.max(np.abs(y)))
        assert np.max(np.abs(reduced - np.trace(x) * y)) < 1e-12 * 16 * scale

    def test_dual_to_receiver_embedding(self, rng):
        # Tr[Tr_CA(m) y] = Tr[m (I4 ⊗ y)]: the defining property of the partial trace
        m, y = random_hermitian(rng, 8), random_hermitian(rng, 2)
        left = np.trace(trace_out_sender_pair(m) @ y)
        right = np.trace(m @ np.kron(I4, y))
        assert abs(left - right) < 1e-12 * 64

    def test_maps_states_to_states(self, rng):
        for _ in range(20):
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = g @ g.conj().T
            rho /= np.trace(rho)
            require_statistical_operator(trace_out_sender_pair(rho))


class TestInvariants:
    @given(seed=SEEDS)
    def test_trace_cyclicity(self, seed):
        rng = np.random.default_rng(seed)
        a, b = uniform_complex_matrix(rng, 4), uniform_complex_matrix(rng, 4)
        scale = max(1.0, np.max(np.abs(a)) * np.max(np.abs(b)))
        assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12 * 16 * scale

    @given(seed=SEEDS)
    def test_gram_matrix_spectrum_nonnegative(self, seed):
        m = uniform_complex_matrix(np.random.default_rng(seed), 4)
        spectrum = hermitian_spectrum(m.conj().T @ m)
        assert spectrum[-1] >= -1e-10 * max(1.0, np.max(np.abs(m)) ** 2)

    @given(seed=SEEDS)
    def test_partial_transpose_involution_exact(self, seed):
        m = uniform_complex_matrix(np.random.default_rng(seed), 4)
        assert np.array_equal(partial_transpose(partial_transpose(m)), m)

    @given(seed=SEEDS)
    def test_partial_transpose_entries(self, seed):
        # distinct normal draws, so that any other permutation of entries differs
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        pt = partial_transpose(m)
        for i, j, k, l in np.ndindex(2, 2, 2, 2):
            assert pt[2 * i + j, 2 * k + l] == m[2 * i + l, 2 * k + j]


def finite_rows(stack):
    """The rows of an ``(N, 4)`` or ``(N, 2, 2)`` stack that meet the finite entry as ``require`` evaluates it.

    That is the first entry of ``renormalization_table``, as the kernels check their raw operators.
    """
    quantities = exact_quantities(renormalization_table, stack.reshape(len(stack), 4).T)
    return np.array([row[0] <= FINITE[0] for row in quantities], dtype=bool)


class TestFiniteRows:
    """The finite entry, as ``require`` evaluates it, equals the reduction, for every placement of one non-finite part."""

    @staticmethod
    def reference(a):
        return np.isfinite(a).all(axis=tuple(range(1, a.ndim)))

    @staticmethod
    def stack(shape, n):
        rng = np.random.default_rng([n, len(shape)])
        return rng.normal(size=(n, *shape)) + 1j * rng.normal(size=(n, *shape))

    @pytest.mark.parametrize("shape", [(4,), (2, 2)])
    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_finite_stack(self, shape, n):
        a = self.stack(shape, n)
        assert finite_rows(a).shape == (n,)
        assert finite_rows(a).tobytes() == self.reference(a).tobytes()

    @pytest.mark.parametrize("shape", [(4,), (2, 2)])
    @pytest.mark.parametrize("n", [1, 1000])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("imag", [False, True])
    def test_one_non_finite_part(self, shape, n, bad, imag):
        a = self.stack(shape, n)
        for entry in range(4):
            b = a.copy()
            row = (7 * entry) % n
            z = b.reshape(n, 4)[row, entry]
            b.reshape(n, 4)[row, entry] = complex(z.real, bad) if imag else complex(bad, z.imag)
            mask = finite_rows(b)
            assert mask.tobytes() == self.reference(b).tobytes()
            assert np.flatnonzero(~mask).tolist() == [row]
