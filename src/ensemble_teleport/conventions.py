"""Two state-update conventions for the sender's preparation, and their comparison.

The one-sided ansatz applies the preparation once and renormalizes by the
trace; the two-sided (Lüders-type) rule sandwiches the state between two
copies of the preparation before renormalizing. For idempotent preparations
both produce the same receiver state; for the automatic preparation the
sandwich numerator is exactly twice the one-sided one and renormalization
absorbs the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ANNIHILATION_TOL, EQ_TOL, embed_sender_pair, trace_out_sender_pair
from .protocol import (
    CoefficientVector,
    PreparationTensor,
    alice_prepare,
    renormalize,
    total_state,
)


def sandwich_numerator(u: PreparationTensor, c: CoefficientVector) -> np.ndarray:
    """Receiver-side operator of the two-sided update, before normalization."""
    p8 = embed_sender_pair(u.matrix())
    return trace_out_sender_pair(p8 @ total_state(c) @ p8)


def _normalized_sandwich(numerator: np.ndarray) -> np.ndarray:
    denominator = complex(np.trace(numerator))
    if abs(denominator.imag) > EQ_TOL or denominator.real <= ANNIHILATION_TOL:
        raise ValueError(
            f"two-sided update annihilated the ensemble: total trace {denominator!r}"
        )
    return numerator / denominator.real


def prepare_sandwich(u: PreparationTensor, c: CoefficientVector) -> np.ndarray:
    """Two-sided preparation: sandwich the total state and divide by the full trace."""
    return _normalized_sandwich(sandwich_numerator(u, c))


@dataclass(frozen=True, eq=False)
class ConventionResult:
    """Both conventions' receiver states and their entrywise gap.

    ``prenorm_ratio`` is the ratio of pre-normalization traces (two-sided
    over one-sided): one for idempotent preparations, two for the
    automatic one.
    """

    ansatz: np.ndarray
    sandwich: np.ndarray
    max_abs_diff: float
    prenorm_ratio: float


def compare_conventions(u: PreparationTensor, c: CoefficientVector) -> ConventionResult:
    """Run both updates on the same input and record their difference."""
    raw = alice_prepare(u, c)
    ansatz = renormalize(raw)
    numerator = sandwich_numerator(u, c)
    sandwich = _normalized_sandwich(numerator)
    ratio = float(np.trace(numerator).real / np.trace(raw).real)
    diff = float(np.max(np.abs(ansatz - sandwich)))
    return ConventionResult(
        ansatz=ansatz, sandwich=sandwich, max_abs_diff=diff, prenorm_ratio=ratio
    )
