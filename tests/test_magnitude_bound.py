"""The magnitude bound at every public entry point that takes an operator or a preparation tensor.

One entry of a valid input is replaced by a value from either side of
MAX_ENTRY = 2**400, the largest double, a subnormal or a signed zero, in its
real part, its imaginary part or both, and, for operators, optionally
mirrored to keep the input Hermitian. An entry whose modulus exceeds the
bound raises its message, naming the first such entry in row-major order.
At or below the bound, with warnings as errors, the entry point returns
finite values or raises a ValueError that names an invariant; it never
raises OverflowError and never returns NaN or Inf.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_teleport import (
    ConventionResult,
    CoefficientVector,
    PreparationTensor,
    automatic_preparation,
    bob_correct,
    compare_conventions,
    fidelity_trace,
    fidelity_vector,
    hermitian_spectrum,
    partial_transpose,
    ppt_entangled,
    preparation_from_bell,
    receiver_states,
    renormalize,
    require_statistical_operator,
    spectral_norm,
)
from ensemble_teleport import linalg
from ensemble_teleport.linalg import MAX_ENTRY, as_matrix
from conftest import random_state
from test_linalg import bound_message

DBL_MAX = np.finfo(float).max
VALUES = [
    MAX_ENTRY, -MAX_ENTRY,
    MAX_ENTRY * (1 + 2.0**-52), -MAX_ENTRY * (1 + 2.0**-52),
    MAX_ENTRY * (1 - 2.0**-52), -MAX_ENTRY * (1 - 2.0**-52),
    DBL_MAX, -DBL_MAX, 5e-324, 0.0, -0.0,
]
PARTS = {"real": lambda v: complex(v, 0.0), "imaginary": lambda v: complex(0.0, v), "both": lambda v: complex(v, v)}
# the starts of the messages of the invariants an input at or below the bound may fail
INVARIANTS = (
    "not a statistical operator: ",
    "matrix is not Hermitian: ",
    "preparation annihilated the ensemble: ",
    "cannot renormalize: trace has imaginary part ",
    "fidelity has non-negligible imaginary part ",
    "transformation annihilates the input: ",
    "vector-form fidelity has imaginary part ",
    "two-sided update annihilated the ensemble: ",
)

KNOWN = [preparation_from_bell(k) for k in (1, 2, 3, 4)] + [automatic_preparation()]


def tensor(w):
    return PreparationTensor(w.reshape(2, 2, 2, 2), normalized=False)


# name -> (sizes, the valid input of a size, the call on an input and a coefficient vector)
ENTRY_POINTS = {
    "as_matrix": ((2, 4, 8), random_state, lambda op, c: as_matrix(op)),
    "partial_transpose": ((4,), random_state, lambda op, c: partial_transpose(op)),
    "hermitian_spectrum": ((2, 4, 8), random_state, lambda op, c: hermitian_spectrum(op)),
    "spectral_norm": ((2, 4, 8), random_state, lambda op, c: spectral_norm(op)),
    "require_statistical_operator": ((2, 4, 8), random_state, lambda op, c: require_statistical_operator(op)),
    "ppt_entangled": ((4,), random_state, lambda op, c: ppt_entangled(op)),
    "renormalize": ((2, 4, 8), random_state, lambda op, c: renormalize(op)),
    "fidelity_trace": ((2,), random_state, lambda op, c: fidelity_trace(c, op)),
    "bob_correct": ((2,), random_state, lambda op, c: bob_correct(2, op)),
    # a session map of a known preparation
    "fidelity_vector": ((4,), lambda rng, n: KNOWN[rng.integers(5)].coefficient_map, lambda op, c: fidelity_vector(c, op)),
    # weights u[k, l, m, n] of a known preparation as a 4x4 array, and the maps, sessions and comparisons they give
    "PreparationTensor": ((4,), lambda rng, n: KNOWN[rng.integers(5)].u.reshape(4, 4), lambda w, c: tensor(w).coefficient_map),
    "PreparationTensor sessions": (
        (4,),
        lambda rng, n: KNOWN[rng.integers(5)].u.reshape(4, 4),
        lambda w, c: receiver_states(tensor(w).session_map(False), c.row),
    ),
    "PreparationTensor conventions": (
        (4,),
        lambda rng, n: KNOWN[rng.integers(5)].u.reshape(4, 4),
        lambda w, c: compare_conventions(tensor(w), c),
    ),
}


def is_finite(result) -> bool:
    if result is None or isinstance(result, (bool, np.bool_)):
        return True
    if isinstance(result, ConventionResult):
        result = (result.ansatz, result.sandwich, result.max_abs_diff, result.prenorm_ratio)
    if isinstance(result, tuple):
        return all(map(is_finite, result))
    return bool(np.isfinite(result).all())


def assert_bound_holds(name, op, c):
    call = ENTRY_POINTS[name][2]
    bound = bound_message(op)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(op, c)
        except ValueError as exc:
            message = str(exc)
            if bound is not None:
                assert message == bound, (name, op)
            else:
                assert message.startswith(INVARIANTS), (name, op, message)
            return message
    assert bound is None, (name, op)
    assert is_finite(result), (name, op, result)
    return result


def with_entry(base, i, j, entry, mirrored):
    op = np.array(base, dtype=complex)
    op[i, j] = entry
    if mirrored:
        op[j, i] = entry.conjugate()
    return op


@st.composite
def cases(draw):
    """An entry point, a valid input with one entry replaced, and a coefficient vector."""
    name = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    sizes, base, _ = ENTRY_POINTS[name]
    n = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    entry = PARTS[draw(st.sampled_from(sorted(PARTS)))](draw(st.sampled_from(VALUES)))
    op = with_entry(base(rng, n), i, j, entry, draw(st.booleans()))
    x, y, z = rng.normal(size=3)
    r = rng.uniform() ** (1 / 3) / math.sqrt(x * x + y * y + z * z)
    return name, op, CoefficientVector.from_bloch(r * x, r * y, r * z)


class TestEveryEntryPoint:
    @settings(max_examples=400)
    @given(cases())
    def test_bound_message_above_and_finite_or_named_at_or_below(self, case):
        assert_bound_holds(*case)

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_each_value_in_each_part(self, name, value):
        # on an off-diagonal entry, alone and mirrored, and on a diagonal one
        sizes, base, _ = ENTRY_POINTS[name]
        rng = np.random.default_rng(sorted(ENTRY_POINTS).index(name))
        c = CoefficientVector.from_bloch(0.3, -0.2, 0.5)
        for n in sizes:
            valid = base(rng, n)
            for part in PARTS.values():
                for i, j, mirrored in ((0, 1, False), (0, 1, True), (1, 1, False)):
                    assert_bound_holds(name, with_entry(valid, i, j, part(value), mirrored), c)

    def test_each_entry_point_reaches_both_sides(self):
        # values at the bound pass the check and reach an invariant or a finite result
        c = CoefficientVector.from_bloch(0.3, -0.2, 0.5)
        for name, (sizes, base, _) in ENTRY_POINTS.items():
            valid = base(np.random.default_rng(0), sizes[0])
            above = assert_bound_holds(name, with_entry(valid, 1, 1, complex(DBL_MAX, 0.0), False), c)
            assert above == "entry (1.7976931348623157e+308+0j) exceeds the magnitude bound 2**400 = 2.582e+120", name
            at = assert_bound_holds(name, with_entry(valid, 1, 1, complex(MAX_ENTRY, 0.0), False), c)
            assert not (isinstance(at, str) and at.startswith("entry ")), name


class TestOneCheckPerCall:
    """Each entry point that takes an operator checks its magnitudes once, on the one list of its entries."""

    @pytest.mark.parametrize("name", [name for name in ENTRY_POINTS if not name.startswith("PreparationTensor")])
    def test_each_operator_entry_point_checks_once(self, name, monkeypatch):
        calls = []
        check = linalg.require_bounded
        monkeypatch.setattr(linalg, "require_bounded", lambda *args: calls.append(args) or check(*args))
        sizes, base, call = ENTRY_POINTS[name]
        c = CoefficientVector.from_bloch(0.3, -0.2, 0.5)
        for n in sizes:
            op = base(np.random.default_rng(n), n)
            calls.clear()
            call(op, c)
            assert len(calls) == 1, (name, n)
