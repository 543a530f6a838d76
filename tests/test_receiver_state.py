"""The coefficient-space session kernel against the 8x8 reference path.

The reference is alice_prepare -> renormalize -> bob_correct: the total state
assembled on C ⊗ A ⊗ B, the preparation embedded, the sender pair traced out.
The batched kernel is also checked against the per-row loop it replaced.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ensemble_teleport import (
    BELL_INDICES,
    ClassicalMessage,
    CoefficientVector,
    PreparationTensor,
    alice_prepare,
    automatic_preparation,
    bob_correct,
    fidelity_trace,
    preparation_from_bell,
    receiver_states,
    renormalize,
    require_statistical_operator,
    resolve_preparation,
    run_session,
    transformation_matrix,
)
from ensemble_teleport import linalg
from ensemble_teleport.conventions import compare_conventions
from conftest import bloch_coefficient_strategy, random_coefficients

PREPARATIONS = [1, 2, 3, 4, "automatic"]


def prep_input(name):
    return automatic_preparation() if name == "automatic" else name


def reference_state(prep, c, bob_acts):
    u = resolve_preparation(prep)
    state = renormalize(alice_prepare(u, c))
    if bob_acts and u.bell_index is not None:
        state = bob_correct(u.bell_index, state)
    return state


def kernel_state(prep, c, bob_acts):
    """The receiver's state after one session: ``receiver_states`` on one input."""
    states, _ = receiver_states(resolve_preparation(prep).session_map(bob_acts), c.as_vector()[None])
    return states[0]


def _on_sphere(x, y, z, radius=1.0):
    v = np.array([x, y, z]) * radius / np.linalg.norm([x, y, z])
    return CoefficientVector.from_bloch(*v)


def _at_positivity_edge(c11, excess):
    mag = np.sqrt(c11 * (1.0 - c11) + excess)
    return CoefficientVector.from_components(c11, mag * np.exp(0.7j))


BOUNDARY_INPUTS = {
    "pure_x": _on_sphere(1, 0, 0),
    "pure_y": _on_sphere(0, 1, 0),
    "pure_oblique": _on_sphere(0.3, -0.5, 0.4),
    "maximally_mixed": CoefficientVector.from_components(0.5),
    "c11_zero": CoefficientVector.from_components(0.0),
    "c11_one": CoefficientVector.from_components(1.0),
    "edge_plus": _at_positivity_edge(0.3, 1e-12),
    "edge_minus": _at_positivity_edge(0.3, -1e-12),
    "bloch_long_z": CoefficientVector.from_bloch(0.0, 0.0, 1.0 + 1e-13),
    "bloch_long_oblique": _on_sphere(0.3, -0.5, 0.4, radius=1.0 + 1e-13),
}


def rows_of(inputs):
    return np.array([c.as_vector() for c in inputs])


class _Row:
    """Stands in for a CoefficientVector in fidelity_trace, for rows that are not valid inputs."""

    def __init__(self, row):
        self._matrix = np.asarray(row, dtype=complex).reshape(2, 2)

    def matrix(self):
        return self._matrix


def per_row_loop(t, rows):
    """The per-sample path the batched kernel replaced: one row at a time, raising at the first failure."""
    states, fidelities = [], []
    for row in rows:
        with np.errstate(invalid="ignore"):  # the non-finite test row
            raw = 0.5 * (t @ row).reshape(2, 2)
        state = renormalize(raw)
        require_statistical_operator(state)
        states.append(state)
        fidelities.append(fidelity_trace(_Row(row), state))
    return np.array(states), np.array(fidelities)


def outcome(f, *args):
    """f's result, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def hermitian_tensor_strategy():
    """Weight tensors whose 4x4 sender operator is Hermitian but not necessarily PSD."""
    entry = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)

    def build(raw):
        a = np.array(raw[:16]).reshape(4, 4) + 1j * np.array(raw[16:]).reshape(4, 4)
        p = a + a.conj().T
        return PreparationTensor(u=p.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3), normalized=False)

    return st.lists(entry, min_size=32, max_size=32).map(build)


class TestDifferential:
    @pytest.mark.parametrize("bob_acts", [True, False])
    @pytest.mark.parametrize("prep", PREPARATIONS)
    @pytest.mark.parametrize("name", sorted(BOUNDARY_INPUTS))
    def test_boundary_inputs(self, name, prep, bob_acts):
        c = BOUNDARY_INPUTS[name]
        state = kernel_state(prep_input(prep), c, bob_acts)
        assert np.max(np.abs(state - reference_state(prep_input(prep), c, bob_acts))) < 1e-12

    @given(c=bloch_coefficient_strategy(), prep=st.sampled_from(PREPARATIONS), bob_acts=st.booleans())
    def test_generated_inputs(self, c, prep, bob_acts):
        state = kernel_state(prep_input(prep), c, bob_acts)
        assert np.max(np.abs(state - reference_state(prep_input(prep), c, bob_acts))) < 1e-12

    def test_map_matches_operator_path_on_complex_tensors(self, rng):
        for c in random_coefficients(rng, 200):
            w = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
            u = PreparationTensor(u=w, normalized=False)
            mapped = 0.5 * transformation_matrix(u) @ c.as_vector()
            assert np.max(np.abs(mapped.reshape(2, 2) - alice_prepare(u, c))) < 1e-12

    def test_session_path_uses_no_eigensolver(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("eigensolver called on the session path")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        c = CoefficientVector.from_bloch(0.3, -0.5, 0.4)
        for i in BELL_INDICES:
            run_session(c, i, ClassicalMessage.two_bits(i), bob_acts=True)
        run_session(c, automatic_preparation(), ClassicalMessage.pre_agreed(), bob_acts=False)

    def test_session_path_skips_the_batch_checks(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("batch checks called on a one-row batch")

        monkeypatch.setattr(linalg, "require_columns", refuse)
        c = CoefficientVector.from_bloch(0.3, -0.5, 0.4)
        run_session(c, 2, ClassicalMessage.two_bits(2), bob_acts=True)
        run_session(c, automatic_preparation(), ClassicalMessage.pre_agreed(), bob_acts=False)
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        psd = g @ g.conj().T + np.eye(4)  # a positive definite preparation: every session is valid
        general = PreparationTensor(u=psd.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3), normalized=False)
        run_session(c, general, ClassicalMessage.pre_agreed(), bob_acts=False)
        with pytest.raises(ValueError, match="not a statistical operator: negative eigenvalue -1"):
            run_session(
                CoefficientVector.from_bloch(1.0, 0.0, 0.0),
                stretched_coherences(),
                ClassicalMessage.pre_agreed(),
                bob_acts=False,
            )
        compare_conventions(preparation_from_bell(1), c)
        with pytest.raises(AssertionError, match="batch checks"):
            receiver_states(IDENTITY_MAP, np.array([VALID_ROW] * 2))


def stretched_coherences():
    """Three times the automatic preparation's off-diagonal weights: the map diag(1, 3, 3, 1)."""
    w = np.array(automatic_preparation().u)
    w[1, 0, 0, 1] = w[0, 1, 1, 0] = -3.0
    return PreparationTensor(u=w, normalized=False)


class TestBatchedKernel:
    @given(
        batch=st.lists(bloch_coefficient_strategy(), min_size=1, max_size=12),
        prep=st.sampled_from(PREPARATIONS),
        bob_acts=st.booleans(),
    )
    def test_rows_match_reference_on_generated_batches(self, batch, prep, bob_acts):
        t = resolve_preparation(prep_input(prep)).session_map(bob_acts)
        states, fidelities = receiver_states(t, rows_of(batch))
        assert states.shape == (len(batch), 2, 2) and fidelities.shape == (len(batch),)
        for c, state, fidelity in zip(batch, states, fidelities):
            reference = reference_state(prep_input(prep), c, bob_acts)
            assert np.max(np.abs(state - reference)) < 1e-12
            assert abs(fidelity - np.trace(c.matrix() @ reference).real) < 1e-12

    @pytest.mark.parametrize("bob_acts", [True, False])
    @pytest.mark.parametrize("prep", PREPARATIONS)
    def test_boundary_inputs_as_one_batch(self, prep, bob_acts):
        names = sorted(BOUNDARY_INPUTS)
        t = resolve_preparation(prep_input(prep)).session_map(bob_acts)
        states, fidelities = receiver_states(t, rows_of(BOUNDARY_INPUTS[n] for n in names))
        for name, state, fidelity in zip(names, states, fidelities):
            c = BOUNDARY_INPUTS[name]
            reference = reference_state(prep_input(prep), c, bob_acts)
            assert np.max(np.abs(state - reference)) < 1e-12
            assert abs(fidelity - np.trace(c.matrix() @ reference).real) < 1e-12

    @given(u=hermitian_tensor_strategy(), batch=st.lists(bloch_coefficient_strategy(), min_size=1, max_size=8))
    def test_equals_the_per_row_loop(self, u, batch):
        # Bitwise on success; on failure, the message the loop raises first.
        t = resolve_preparation(u).session_map(False)
        rows = rows_of(batch)
        expected, got = outcome(per_row_loop, t, rows), outcome(receiver_states, t, rows)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()


# Rows under the identity map (the automatic preparation's), each failing one
# invariant; the kernel takes any rows, so these need not be valid inputs.
VALID_ROW = [0.5, 0.1 + 0.2j, 0.1 - 0.2j, 0.5]
FAILING_ROWS = {
    "not finite": [np.inf, 0.0, 0.0, 1.0],
    "imaginary trace": [0.5 + 1e-6j, 0.0, 0.0, 0.5],
    "annihilated": [0.0, 0.0, 0.0, 0.0],
    "not Hermitian": [0.5, 0.4, 0.0, 0.5],
    "negative eigenvalue": [0.5, 0.9, 0.9, 0.5],
    # Hermitian within HERMITICITY_TOL, but the overlap keeps an imaginary 3e-11.
    "imaginary overlap": [0.5, 0.3j, -0.3j + 5e-11, 0.5],
    # finite entries whose asymmetry |1.5e308 (1 + i)| overflows
    "overflowing asymmetry": [0.5, 1.5e308 + 1.5e308j, 0.0, 0.5],
    # not Hermitian, and the overlap is complex too: Hermiticity is checked first
    "not Hermitian, complex overlap": [0.5, 0.4, 0.1j, 0.5],
}
IDENTITY_MAP = resolve_preparation(automatic_preparation()).session_map(False)


def assert_one_row_as_two(t, row):
    """A one-row batch (scalar checks) gives what the row stacked twice (batch checks) gives."""
    row = np.asarray(row, dtype=complex)
    one, two = outcome(receiver_states, t, row[None]), outcome(receiver_states, t, np.array([row, row]))
    if isinstance(two, str):
        assert one == two
    else:
        assert not isinstance(one, str), one
        assert one[0].tobytes() == two[0][:1].tobytes()
        assert one[1].tobytes() == two[1][:1].tobytes()


class TestOneRowBranch:
    @pytest.mark.parametrize("kind", ["valid", *FAILING_ROWS])
    def test_one_row_as_two(self, kind):
        assert_one_row_as_two(IDENTITY_MAP, VALID_ROW if kind == "valid" else FAILING_ROWS[kind])

    def test_non_finite_raw_operator_before_its_trace(self):
        # the map overflows the coherences of a row whose trace is zero
        t = np.diag([1.0, 4.0, 4.0, 1.0]).astype(complex)
        row = [0.0, 1e308, 1e308, 0.0]
        with np.errstate(over="ignore"):
            expected = outcome(per_row_loop, t, np.array([row]))
        assert expected == "matrix contains NaN or Inf entries"
        assert outcome(receiver_states, t, np.array([row])) == expected
        assert_one_row_as_two(t, row)

    @given(u=hermitian_tensor_strategy(), c=bloch_coefficient_strategy())
    def test_generated_one_row_as_two(self, u, c):
        assert_one_row_as_two(resolve_preparation(u).session_map(False), c.as_vector())


class TestMixedFailures:
    def test_each_row_fails_its_own_invariant(self):
        messages = {kind: outcome(per_row_loop, IDENTITY_MAP, np.array([row])) for kind, row in FAILING_ROWS.items()}
        assert "NaN or Inf" in messages["not finite"]
        assert "imaginary part" in messages["imaginary trace"]
        assert "annihilated" in messages["annihilated"]
        assert "not Hermitian" in messages["not Hermitian"]
        assert "negative eigenvalue" in messages["negative eigenvalue"]
        assert "fidelity has non-negligible imaginary part" in messages["imaginary overlap"]
        for kind, row in FAILING_ROWS.items():
            assert outcome(receiver_states, IDENTITY_MAP, np.array([row])) == messages[kind]

    @pytest.mark.parametrize("first, second", list(itertools.permutations(FAILING_ROWS, 2)))
    def test_raises_what_the_loop_raises_first(self, first, second):
        rows = np.array([VALID_ROW, FAILING_ROWS[first], VALID_ROW, FAILING_ROWS[second], VALID_ROW])
        expected = outcome(per_row_loop, IDENTITY_MAP, rows)
        assert isinstance(expected, str)
        assert outcome(receiver_states, IDENTITY_MAP, rows) == expected
        assert expected == outcome(per_row_loop, IDENTITY_MAP, np.array([FAILING_ROWS[first]]))

    def test_shuffled_batches(self, rng):
        pool = [VALID_ROW] * 6 + list(FAILING_ROWS.values())
        for _ in range(30):
            rows = np.array([pool[i] for i in rng.permutation(len(pool))])
            assert outcome(receiver_states, IDENTITY_MAP, rows) == outcome(per_row_loop, IDENTITY_MAP, rows)

    def test_valid_rows_pass(self):
        states, fidelities = receiver_states(IDENTITY_MAP, np.array([VALID_ROW] * 3))
        assert np.array_equal(states, np.array([VALID_ROW] * 3).reshape(3, 2, 2))
        assert np.array_equal(fidelities, per_row_loop(IDENTITY_MAP, np.array([VALID_ROW] * 3))[1])

    @pytest.mark.parametrize("shape", [(4,), (3, 2), (2, 2, 2)])
    def test_rejects_a_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="N, 4"):
            receiver_states(IDENTITY_MAP, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (4, 2), (1, 4, 4)])
    def test_rejects_a_map_that_is_not_4x4(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"expected a 4x4 session map, got shape {shape}")):
            receiver_states(np.zeros(shape, dtype=complex), np.array([VALID_ROW]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_map(self, entry):
        t = np.array(IDENTITY_MAP)
        t[1, 2] = entry
        with pytest.raises(ValueError, match="matrix contains NaN or Inf entries"):
            receiver_states(t, np.array([VALID_ROW] * 2))


class TestPositivity:
    @given(u=hermitian_tensor_strategy(), c=bloch_coefficient_strategy())
    def test_raises_exactly_when_reference_is_not_positive(self, u, c):
        raw = alice_prepare(u, c)
        trace = np.trace(raw).real
        message = ClassicalMessage.pre_agreed()
        if trace <= 1e-9:
            with pytest.raises(ValueError, match="annihilated"):
                run_session(c, u, message, bob_acts=False)
            return
        assume(trace > 1e-3)  # a tiny trace amplifies roundoff past the Hermiticity check
        reference = renormalize(raw)
        smallest = np.linalg.eigvalsh(reference)[0]
        assume(abs(smallest + 1e-10) > 1e-12)
        if smallest < -1e-10:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                run_session(c, u, message, bob_acts=False)
        else:
            record = run_session(c, u, message, bob_acts=False)
            assert np.max(np.abs(record.bob_state - reference)) < 1e-12

    def test_error_names_the_invariant(self):
        # Three times the automatic preparation's off-diagonal weights: the map
        # is diag(1, 3, 3, 1), which stretches coherences past positivity.
        w = np.array(automatic_preparation().u)
        w[1, 0, 0, 1] = w[0, 1, 1, 0] = -3.0
        u = PreparationTensor(u=w, normalized=False)
        coherent = CoefficientVector.from_bloch(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="not a statistical operator: negative eigenvalue -1"):
            run_session(coherent, u, ClassicalMessage.pre_agreed(), bob_acts=False)
        mixed = CoefficientVector.from_components(0.5)
        record = run_session(mixed, u, ClassicalMessage.pre_agreed(), bob_acts=False)
        assert np.max(np.abs(record.bob_state - mixed.matrix())) < 1e-12


class TestClassification:
    @pytest.mark.parametrize("prep", PREPARATIONS)
    def test_exact_weights_give_the_constant_maps(self, prep):
        fresh = automatic_preparation() if prep == "automatic" else preparation_from_bell(prep)
        constant = resolve_preparation(prep_input(prep))
        assert resolve_preparation(fresh) is fresh
        assert (fresh.bell_index, fresh.automatic) == (constant.bell_index, constant.automatic)
        for bob_acts in (True, False):
            t = fresh.session_map(bob_acts)
            assert not t.flags.writeable
            assert t.tobytes() == constant.session_map(bob_acts).tobytes()

    @pytest.mark.parametrize("prep", PREPARATIONS)
    def test_weights_within_tolerance_build_their_own_map(self, prep):
        known = automatic_preparation() if prep == "automatic" else preparation_from_bell(prep)
        w = np.array(known.u)
        w[0, 1, 0, 1] += 0.5e-12
        u = PreparationTensor(u=w, normalized=False)
        assert resolve_preparation(u) is u
        t = u.session_map(False)
        assert t.tobytes() != known.session_map(False).tobytes()
        assert t.tobytes() == transformation_matrix(u).tobytes()

    def test_general_tensor_builds_its_map_once(self):
        w = np.array(automatic_preparation().u)
        w[0, 1, 0, 1] = 0.25
        u = PreparationTensor(u=w, normalized=False)
        assert resolve_preparation(u) is u
        first = u.session_map(False)
        assert first is u.coefficient_map
        assert first is u.session_map(False)
        assert first.tobytes() == transformation_matrix(u).tobytes()
        c = CoefficientVector.from_components(0.5)
        run_session(c, u, ClassicalMessage.pre_agreed(), bob_acts=False)
        assert u.coefficient_map is first
        bell = preparation_from_bell(2)
        corrected = bell.session_map(True)
        run_session(c, bell, ClassicalMessage.two_bits(2), bob_acts=True)
        assert bell.session_map(True) is corrected

    def test_integer_path_returns_the_constant_tensor(self):
        for i in BELL_INDICES:
            first, second = resolve_preparation(i), resolve_preparation(i)
            assert first is second
            assert not first.u.flags.writeable
            assert np.array_equal(first.u, preparation_from_bell(i).u)

    @pytest.mark.parametrize("prep", PREPARATIONS)
    def test_classification_tolerance(self, prep):
        known_tensor = automatic_preparation() if prep == "automatic" else preparation_from_bell(prep)
        base = np.array(known_tensor.u)
        for shift, known in ((0.9e-12, True), (1.1e-12, False)):
            w = base.copy()
            w[0, 1, 0, 1] += shift
            u = PreparationTensor(u=w, normalized=False)
            assert resolve_preparation(u) is u
            if prep == "automatic":
                assert u.automatic is known and u.bell_index is None
            else:
                assert u.bell_index == (prep if known else None)
                assert not u.automatic
