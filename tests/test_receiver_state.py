"""The coefficient-space session kernel against the 8x8 reference path.

The reference is alice_prepare -> renormalize -> bob_correct: the total state
assembled on C ⊗ A ⊗ B, the preparation embedded, the sender pair traced out.
"""

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
    preparation_from_bell,
    receiver_state,
    renormalize,
    resolve_preparation,
    run_session,
    transformation_matrix,
)
from conftest import bloch_coefficient_strategy, random_coefficients

PREPARATIONS = [1, 2, 3, 4, "automatic"]


def prep_input(name):
    return automatic_preparation() if name == "automatic" else name


def reference_state(prep, c, bob_acts):
    resolved = resolve_preparation(prep)
    state = renormalize(alice_prepare(resolved.tensor, c))
    if bob_acts and resolved.bell_index is not None:
        state = bob_correct(resolved.bell_index, state)
    return state


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
        resolved = resolve_preparation(prep_input(prep))
        state = receiver_state(resolved, c, bob_acts)
        assert np.max(np.abs(state - reference_state(prep_input(prep), c, bob_acts))) < 1e-12

    @given(c=bloch_coefficient_strategy(), prep=st.sampled_from(PREPARATIONS), bob_acts=st.booleans())
    def test_generated_inputs(self, c, prep, bob_acts):
        state = receiver_state(resolve_preparation(prep_input(prep)), c, bob_acts)
        assert np.max(np.abs(state - reference_state(prep_input(prep), c, bob_acts))) < 1e-12

    def test_map_matches_operator_path_on_complex_tensors(self, rng):
        for c in random_coefficients(rng, 200):
            w = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
            u = PreparationTensor(u=w, normalized=False)
            mapped = 0.5 * transformation_matrix(u).matrix @ c.as_vector()
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
    def test_integer_path_returns_the_constant_tensor(self):
        for i in BELL_INDICES:
            first, second = resolve_preparation(i), resolve_preparation(i)
            assert first.tensor is second.tensor
            assert not first.tensor.u.flags.writeable
            assert np.array_equal(first.tensor.u, preparation_from_bell(i).u)

    @pytest.mark.parametrize("prep", PREPARATIONS)
    def test_classification_tolerance(self, prep):
        known_tensor = automatic_preparation() if prep == "automatic" else preparation_from_bell(prep)
        base = np.array(known_tensor.u)
        for shift, known in ((0.9e-12, True), (1.1e-12, False)):
            w = base.copy()
            w[0, 1, 0, 1] += shift
            u = PreparationTensor(u=w, normalized=False)
            resolved = resolve_preparation(u)
            assert resolved.tensor is u
            if prep == "automatic":
                assert resolved.automatic is known and resolved.bell_index is None
            else:
                assert resolved.bell_index == (prep if known else None)
                assert not resolved.automatic
