"""Every public function that takes an operator of one size checks that size the same way.

``as_matrix(m, n)`` rejects any shape but (n, n) first, with one message,
before its square, dimension and finite checks.
"""

import math

import numpy as np
import pytest

from ensemble_teleport import (
    CoefficientVector,
    bob_correct,
    fidelity_trace,
    fidelity_vector,
    partial_transpose,
    ppt_entangled,
)

C = CoefficientVector.from_components(0.3, 0.2 + 0.1j)

# name -> (the operator size it takes, the call on an operator)
SIZED = {
    "fidelity_trace": (2, lambda m: fidelity_trace(C, m)),
    "bob_correct": (2, lambda m: bob_correct(1, m)),
    "partial_transpose": (4, partial_transpose),
    "ppt_entangled": (4, ppt_entangled),
    "fidelity_vector": (4, lambda m: fidelity_vector(C, m)),
}
SHAPES = [(2, 2), (4, 4), (8, 8), (3, 3), (2, 4), (4,), (), (1, 4, 4)]


@pytest.mark.parametrize("name", sorted(SIZED))
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_wrong_shape_names_the_size(name, shape):
    n, call = SIZED[name]
    if shape == (n, n):
        # a NaN entry in the right shape still fails the finite check
        m = np.eye(n, dtype=complex)
        m[0, -1] = math.nan
        message = "matrix contains NaN or Inf entries"
    else:
        m = np.full(shape, math.nan)  # the shape is checked before the entries
        message = f"expected a {n}x{n} operator, got shape {shape}"
    with pytest.raises(ValueError) as info:
        call(m)
    assert str(info.value) == message
