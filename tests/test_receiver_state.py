"""The coefficient-space session kernel against the 8x8 reference path.

The reference is alice_prepare -> renormalize -> bob_correct: the total state
assembled on C ⊗ A ⊗ B, the preparation embedded, the sender pair traced out.
The batched kernel is also checked against the per-row loop it replaced.
"""

import itertools
import math
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

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
    bloch_coefficient_rows,
    bob_correct,
    coefficient_rows,
    fidelity_trace,
    preparation_from_bell,
    receiver_states,
    renormalize,
    require_statistical_operator,
    resolve_preparation,
    run_session,
    transformation_matrix,
)
from ensemble_teleport import cli, protocol
from ensemble_teleport.conventions import compare_conventions
from ensemble_teleport.fidelity import SAMPLERS
from ensemble_teleport.linalg import BOUNDED, MAX_ENTRY
from conftest import bloch_coefficient_strategy, random_coefficients
from test_check_tables import SPECIAL

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


def renormalized_overlap(row):
    """renormalize, then fidelity_trace: the one-operator functions whose checks the kernel runs on a row."""
    with np.errstate(invalid="ignore"):  # the non-finite test row
        raw = 0.5 * (IDENTITY_MAP @ row).reshape(2, 2)
    return fidelity_trace(_Row(row), renormalize(raw))


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
        def refusing(name):
            def refuse(*_):
                raise AssertionError(f"{name} called on a session")

            return refuse

        monkeypatch.setattr(protocol, "require_columns", refusing("batch checks"))
        monkeypatch.setattr(protocol, "_mapped_states", refusing("batch arithmetic"))
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
        with pytest.raises(AssertionError, match="batch arithmetic"):
            receiver_states(IDENTITY_MAP, np.array([VALID_ROW] * 2))
        monkeypatch.undo()
        monkeypatch.setattr(protocol, "require_columns", refusing("batch checks"))
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
# The kernel takes any rows, but renormalize and fidelity_trace, and so the per-row loop, name an
# entry above MAX_ENTRY: the loop's message -> the kernel's, for the failing rows above the bound.
KERNEL_MESSAGE = {
    BOUNDED[1](0.75e308 + 0.75e308j): "not a statistical operator: not Hermitian (asymmetry inf)",
}


def kernel_message(loop_message):
    """The message ``receiver_states`` raises where the per-row loop raises ``loop_message`` first."""
    return KERNEL_MESSAGE.get(loop_message, loop_message)


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


# Parts of the bit oracle's rows: signed zeros and units, values near the underflow and overflow
# thresholds, the magnitude bound and non-finite values. The tiny ones keep a valid row valid.
# -5e-324, or -1e-323 under a map entry of 1/2, reaches the halving of the mapped vector as
# -5e-324, which a fused complex product halves to -0.0 and an unfused one may halve to +0.0.
TINY_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, 1e-300, -1e-300]
SPECIAL_PARTS = TINY_PARTS + [1.0, -1.0, 0.5, 1e300, -1e300, 2.0**400, np.inf, -np.inf, np.nan]


def special_rows(seed, n):
    """n seeded rows: even ones with every part from SPECIAL_PARTS, odd ones valid inputs with parts from TINY_PARTS.

    An odd row's c11 and each part of c12 is replaced from TINY_PARTS with
    probability 1/4, in pairs that keep c22 = 1 - c11 and c21 = conj(c12), so
    most odd rows stay valid.
    """
    rng = np.random.default_rng(seed)
    odd = (np.arange(n) % 2 == 1)[:, None]
    drawn = rng.choice(SPECIAL_PARTS, size=(n, 8))
    valid = rows_of(random_coefficients(rng, n)).view(float)
    c11, re, im = np.where(rng.random((n, 3)) < 0.25, rng.choice(TINY_PARTS, size=(n, 3)), valid[:, [0, 2, 3]]).T
    valid[:, 0], valid[:, 6] = c11, 1.0 - c11
    valid[:, 2], valid[:, 3], valid[:, 4], valid[:, 5] = re, im, re, -im
    return np.where(odd, valid, drawn).view(complex)


def general_tensor(seed, psd):
    """A seeded general preparation: positive semidefinite, or Hermitian with eigenvalues of both signs."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    p = g @ g.conj().T if psd else g + g.conj().T
    return PreparationTensor(u=p.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3), normalized=False)


# (preparation, bob_acts) of the bit oracle's sessions: the 10 known session maps and two general ones.
ORACLE_SESSIONS = {
    **{f"{prep}, bob_acts={acts}": (prep_input(prep), acts) for prep in PREPARATIONS for acts in (True, False)},
    "general PSD": (general_tensor(11, psd=True), False),
    "general not PSD": (general_tensor(12, psd=False), False),
}


def session_message(prep):
    return ClassicalMessage.two_bits(prep) if isinstance(prep, int) else ClassicalMessage.pre_agreed()


def one_row_outcomes(prep, bob_acts, row):
    """The bytes, or the messages, of a one-row ``receiver_states`` and of ``run_session`` on ``row``.

    ``run_session`` reads only ``c.row``, so it takes rows that are not valid inputs as a stand-in.
    """
    row = np.array([row], dtype=complex)
    kernel = outcome(receiver_states, resolve_preparation(prep).session_map(bob_acts), row)
    record = outcome(run_session, SimpleNamespace(row=row), prep, session_message(prep), bob_acts)
    if not isinstance(kernel, str):
        kernel = kernel[0].tobytes() + kernel[1].tobytes()
    if not isinstance(record, str):
        record = record.bob_state.tobytes() + np.float64(record.fidelity).tobytes()
    return kernel, record


class TestOneRowBranch:
    @pytest.mark.parametrize("kind", ["valid", *FAILING_ROWS, *(f"special parts, {name}" for name in ORACLE_SESSIONS)])
    def test_one_row_as_two(self, kind):
        if not kind.startswith("special parts, "):
            assert_one_row_as_two(IDENTITY_MAP, VALID_ROW if kind == "valid" else FAILING_ROWS[kind])
            return
        name = kind.removeprefix("special parts, ")
        prep, bob_acts = ORACLE_SESSIONS[name]
        t = resolve_preparation(prep).session_map(bob_acts)
        for row in special_rows(list(ORACLE_SESSIONS).index(name), 300):
            assert_one_row_as_two(t, row)
            kernel, record = one_row_outcomes(prep, bob_acts, row)
            assert record == kernel, row

    @pytest.mark.parametrize("kind", ["subnormal coherence", *FAILING_ROWS])
    def test_same_outcome_when_numpy_raises(self, kind):
        # The one-row kernel ignores numpy's error state as the batch kernel does: the subnormal
        # coherence underflows in the map product or the halving, and the failing rows overflow or give NaN.
        if kind == "subnormal coherence":
            row, sessions = CoefficientVector.from_components(0.5, 5e-324).as_vector(), ORACLE_SESSIONS.values()
        else:
            row, sessions = FAILING_ROWS[kind], [(automatic_preparation(), False)]
        for prep, bob_acts in sessions:
            expected = one_row_outcomes(prep, bob_acts, row)
            with np.errstate(all="raise"):
                assert one_row_outcomes(prep, bob_acts, row) == expected

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
        assert messages["overflowing asymmetry"] == BOUNDED[1](0.75e308 + 0.75e308j)
        for kind, row in FAILING_ROWS.items():
            assert outcome(receiver_states, IDENTITY_MAP, np.array([row])) == kernel_message(messages[kind])

    @pytest.mark.parametrize("first, second", list(itertools.permutations(FAILING_ROWS, 2)))
    def test_raises_what_the_loop_raises_first(self, first, second):
        rows = np.array([VALID_ROW, FAILING_ROWS[first], VALID_ROW, FAILING_ROWS[second], VALID_ROW])
        expected = outcome(per_row_loop, IDENTITY_MAP, rows)
        assert isinstance(expected, str)
        assert outcome(receiver_states, IDENTITY_MAP, rows) == kernel_message(expected)
        assert expected == outcome(per_row_loop, IDENTITY_MAP, np.array([FAILING_ROWS[first]]))

    @pytest.mark.parametrize("kind", sorted(FAILING_ROWS))
    def test_fidelity_trace_raises_the_kernel_message(self, kind):
        row = np.array(FAILING_ROWS[kind], dtype=complex)
        expected = outcome(receiver_states, IDENTITY_MAP, row[None])
        assert isinstance(expected, str)
        assert kernel_message(outcome(renormalized_overlap, row)) == expected

    @pytest.mark.parametrize("value", SPECIAL)
    def test_fidelity_trace_agrees_with_the_kernel_on_each_special_value(self, value):
        # each special value of the check-table tests, as v, iv and v + iv, in each entry of a valid row
        for i in range(4):
            for v in (value, complex(0.0, value), complex(value, value)):
                row = np.array(VALID_ROW, dtype=complex)
                row[i] = v
                with np.errstate(all="ignore"):  # rows whose entries overflow under the map
                    expected = outcome(receiver_states, IDENTITY_MAP, row[None])
                    got = outcome(renormalized_overlap, row)
                    raw = 0.5 * row
                    entries = np.concatenate([raw, raw / (raw[0] + raw[3]).real])
                    above = np.hypot(entries.real, entries.imag) > MAX_ENTRY
                if isinstance(got, str) and got.startswith("entry "):
                    # renormalize or fidelity_trace met an entry above the bound, which the kernel takes
                    assert got in [BOUNDED[1](z) for z in entries[above].tolist()], (i, v)
                    continue
                if isinstance(expected, str):
                    assert got == expected, (i, v)
                else:
                    assert np.float64(got).tobytes() == expected[1].tobytes(), (i, v)

    def test_shuffled_batches(self, rng):
        pool = [VALID_ROW] * 6 + list(FAILING_ROWS.values())
        for _ in range(30):
            rows = np.array([pool[i] for i in rng.permutation(len(pool))])
            assert outcome(receiver_states, IDENTITY_MAP, rows) == kernel_message(outcome(per_row_loop, IDENTITY_MAP, rows))

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


def _rounded(exact: Fraction, zero_sign: float) -> float:
    """``exact`` rounded once to a double; an exact zero takes the sign of ``zero_sign``."""
    if exact == 0:
        return math.copysign(0.0, zero_sign)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _mul(a: float, b: float) -> float:
    """a * b rounded once, from exact rationals. On a non-finite operand IEEE's result is exact: the float product's."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b
    return _rounded(Fraction(a) * Fraction(b), math.copysign(1.0, a) * math.copysign(1.0, b))


def _add(a: float, b: float) -> float:
    """a + b rounded once, as ``_mul``: an exact zero is -0.0 only for two negative zeros."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a + b
    both_negative = math.copysign(1.0, a) == math.copysign(1.0, b) == -1.0
    return _rounded(Fraction(a) + Fraction(b), -1.0 if both_negative else 1.0)


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as ``_mul`` (an exact zero as +0.0)."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        return a * b + c
    return _rounded(Fraction(a) * Fraction(b) + Fraction(c), 1.0)


def _exact_bilinear(x, y, fused=False, sequential=False) -> tuple:
    """``_bilinear``'s expression with every operation rounded once from exact rationals.

    ``fused`` rounds each part of a product x[k] y[k] once, as an FMA does, and
    ``sequential`` adds the four terms as ((0 + 1) + 2) + 3: two changes that
    ``TestBilinear``'s rows must tell from ``_bilinear``.
    """
    def part(p, q, r, s):  # p q + r s
        return _fma(p, q, _mul(r, s)) if fused else _add(_mul(p, q), _mul(r, s))

    def total(t):
        return _add(_add(_add(t[0], t[1]), t[2]), t[3]) if sequential else _add(_add(t[0], t[1]), _add(t[2], t[3]))

    re, im = zip(*((part(a.real, b.real, -a.imag, b.imag), part(a.real, b.imag, a.imag, b.real)) for a, b in zip(x, y)))
    return total(re), total(im)


def assert_same_doubles(got, expected):
    """Equal bytes, but a NaN, whose sign and payload IEEE leaves open, only has to sit where the other's does."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


class TestBilinear:
    """``_bilinear`` rounds each operation once, in its one order, on Python numbers and float64 columns alike.

    ``_real_bilinear``, its real part alone, has the bytes of its real part.
    """

    # 4097 rows of 4 entries of x then 4 of y, every part from SPECIAL_PARTS; a non-finite part is
    # rare (weight 1/50), so most rows stay finite and show how their products and sums round
    WEIGHTS = np.where(np.isfinite(SPECIAL_PARTS), 1.0, 0.02)
    ROWS = np.random.default_rng(31).choice(SPECIAL_PARTS, size=(4097, 16), p=WEIGHTS / WEIGHTS.sum()).view(complex)

    @pytest.fixture(scope="class")
    def exact(self):
        return np.array([_exact_bilinear(row[:4], row[4:]) for row in self.ROWS.tolist()])

    def test_python_numbers(self, exact):
        assert_same_doubles([protocol._bilinear(row[:4], row[4:]) for row in self.ROWS.tolist()], exact)

    @pytest.mark.parametrize("n", [1, 63, 64, 4097])
    def test_columns(self, exact, n):
        rows = self.ROWS[:n]
        with np.errstate(all="ignore"):
            re, im = protocol._bilinear(rows[:, :4].T, rows[:, 4:].T)
        assert_same_doubles(np.stack([re, im], axis=1), exact[:n])

    def test_real_part_alone_on_python_numbers(self):
        rows = self.ROWS.tolist()
        real = np.array([protocol._real_bilinear(row[:4], row[4:]) for row in rows])
        assert real.tobytes() == np.array([protocol._bilinear(row[:4], row[4:])[0] for row in rows]).tobytes()

    @pytest.mark.parametrize("n", [1, 63, 64, 4097])
    def test_real_part_alone_on_columns(self, n):
        rows = self.ROWS[:n]
        with np.errstate(all="ignore"):
            real = protocol._real_bilinear(rows[:, :4].T, rows[:, 4:].T)
            re, _ = protocol._bilinear(rows[:, :4].T, rows[:, 4:].T)
        assert real.tobytes() == re.tobytes()

    @pytest.mark.parametrize("change", ["fused", "sequential"])
    def test_the_rows_tell_a_fused_product_or_another_order(self, exact, change):
        other = np.array([_exact_bilinear(row[:4], row[4:], **{change: True}) for row in self.ROWS.tolist()])
        for part in (slice(None), 0):  # both parts, and the real part alone
            with pytest.raises(AssertionError):
                assert_same_doubles(other[:, part], exact[:, part])


def _sweep_rows(resolution=30, phase_resolution=4) -> np.ndarray:
    """The sweep_csv grid's coefficient rows."""
    args = SimpleNamespace(slice="grid", resolution=resolution, phase_resolution=phase_resolution)
    c11, c12 = cli._sweep_grid(args, resolution)
    return coefficient_rows(c11, c12, c12.conj(), 1.0 - c11)


def _edge_rows() -> np.ndarray:
    """c11 at 0 and 1, every signed zero in each part of c12, subnormal c12, and the boundary inputs."""
    zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    tiny = [5e-324, -5e-324, 5e-324j, -5e-324j, complex(5e-324, -5e-324)]
    c11 = [0.0, 1.0] * 4 + [0.5] * 4 + [0.5] * 5 + [1.0] * 5
    c12 = zeros * 2 + zeros + tiny * 2
    edges = coefficient_rows(np.array(c11), np.array(c12), np.array(c12).conj(), 1.0 - np.array(c11))
    return np.concatenate([edges, rows_of(BOUNDARY_INPUTS[name] for name in sorted(BOUNDARY_INPUTS))])


def _batch(n: int) -> np.ndarray:
    """n rows: the edge rows first, then sweep grid rows and pure and mixed samples, shuffled."""
    rng = np.random.default_rng(n)
    drawn = [bloch_coefficient_rows(*SAMPLERS[s](rng, 2000)) for s in sorted(SAMPLERS)]
    rest = np.concatenate([_sweep_rows(), *drawn])
    return np.concatenate([_edge_rows(), rest[rng.permutation(len(rest))]])[:n]


def assert_same_outcome(t, rows):
    """``receiver_states`` on the batch raises the per-row loop's first message, or returns each row's one-row bits.

    The fidelities are also the loop's bits. So are the states, but for rows
    with a subnormal part: the loop's ``0.5 * (T c)`` keeps the sign of a
    subnormal entry that halves to zero, which the kernel's ``(T c) * 0.5``
    drops, so there they are only equal as numbers.
    """
    expected, got = outcome(per_row_loop, t, rows), outcome(receiver_states, t, rows)
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    assert got[1].tobytes() == expected[1].tobytes()
    parts = np.abs(rows.view(float))
    plain = ~((parts > 0.0) & (parts < sys.float_info.min)).any(axis=1)
    assert got[0][plain].tobytes() == expected[0][plain].tobytes()
    assert np.array_equal(got[0], expected[0])
    alone = [receiver_states(t, row[None]) for row in rows]
    assert got[0].tobytes() == np.concatenate([states for states, _ in alone]).tobytes()
    assert got[1].tobytes() == np.concatenate([fidelities for _, fidelities in alone]).tobytes()


def _unchecked_states(t, rows):
    """``_session_states``' checked path without its checks: the states and the complex overlaps, one (re, im) row each."""
    with np.errstate(all="ignore"):
        _, states = protocol._mapped_states(t, rows)
        overlaps = protocol._bilinear(rows.T, (states[:, 0, 0], states[:, 1, 0], states[:, 0, 1], states[:, 1, 1]))
    return states, np.stack(overlaps, axis=1)


class TestLargeBatches:
    """Batches of every size equal the per-row loop, under known maps and others alike: each takes the product."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 1000, 3600])
    @pytest.mark.parametrize("bob_acts", [True, False])
    @pytest.mark.parametrize("prep", PREPARATIONS)
    def test_known_maps_equal_the_loop(self, prep, bob_acts, n):
        assert_same_outcome(resolve_preparation(prep_input(prep)).session_map(bob_acts), _batch(n))

    @pytest.mark.parametrize("prep", ["bell1", "bell2", "paut"])
    def test_sweep_grid_equals_the_loop(self, prep):
        assert_same_outcome(cli._PREPS[prep].session_map(False), _sweep_rows())

    @given(u=hermitian_tensor_strategy())
    def test_general_maps_equal_one_row_at_a_time(self, u):
        t = resolve_preparation(u).session_map(False)
        rows = _batch(128)
        assert_same_outcome(t, rows)
        # every row whose state is finite gets its one-row bits, failing rows included
        states, overlaps = _unchecked_states(t, rows)
        for row, state, overlap in zip(rows, states, overlaps):
            if np.isfinite(state).all():
                one_state, one_overlap = _unchecked_states(t, row[None])
                assert state.tobytes() == one_state[0].tobytes()
                assert overlap.tobytes() == one_overlap.tobytes()

    def test_failing_rows_shuffled_into_a_large_batch(self, rng):
        pool = [VALID_ROW] * (200 - len(FAILING_ROWS)) + list(FAILING_ROWS.values())
        for _ in range(10):
            rows = np.array([pool[i] for i in rng.permutation(len(pool))], dtype=complex)
            expected = outcome(per_row_loop, IDENTITY_MAP, rows)
            assert isinstance(expected, str)
            assert outcome(receiver_states, IDENTITY_MAP, rows) == kernel_message(expected)
