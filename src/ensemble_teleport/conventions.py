"""Two state-update conventions for the sender's preparation, and their comparison.

The one-sided ansatz applies the preparation once and renormalizes by the
trace; the two-sided (Lüders-type) rule sandwiches the state between two
copies of the preparation before renormalizing. For idempotent preparations
both produce the same receiver state; for the automatic preparation the
sandwich numerator is exactly twice the one-sided one and renormalization
absorbs the factor.

The comparison runs on stacks of inputs (``_compare_rows``), and
``compare_conventions`` is its one-input call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    embed_sender_pair,
    renormalization_table,
    require,
    require_rows,
    trace_out_sender_pair,
    two_sided_trace_table,
)
from .protocol import CoefficientVector, PreparationTensor, total_state, total_states


def sandwich_numerator(u: PreparationTensor, c: CoefficientVector) -> np.ndarray:
    """Receiver-side operator of the two-sided update, before normalization."""
    p8 = embed_sender_pair(u.matrix())
    return trace_out_sender_pair(p8 @ total_state(c) @ p8)


def prepare_sandwich(u: PreparationTensor, c: CoefficientVector) -> np.ndarray:
    """Two-sided preparation: sandwich the total state and divide by the full trace."""
    numerator = sandwich_numerator(u, c)
    denominator = complex(np.trace(numerator))
    require((two_sided_trace_table, (denominator,)))
    return numerator / denominator.real


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


def _compare_rows(
    u: PreparationTensor, coeffs
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both updates of one preparation on each of a batch of inputs.

    ``coeffs`` is an ``(N, 4)`` array of checked input coefficient rows, as
    ``coefficient_rows`` gives them. Returns the ``ConventionResult`` fields
    stacked: the ``(N, 2, 2)`` one-sided and two-sided states, and the
    ``(N,)`` gaps and ratios. Row i is bitwise what one comparison of input
    i gives: renormalize(alice_prepare(u, c)), prepare_sandwich(u, c) and
    the traces of alice_prepare and sandwich_numerator. A row that fails
    renormalize's checks or the two-sided trace check raises ValueError with
    the message of the lowest failing row's first failing check (``require_rows``).
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[1] != 4:
        raise ValueError(f"expected an (N, 4) array of coefficient rows, got shape {c.shape}")
    p8 = u.sender_operator
    # p8 @ total @ p8 evaluates as (p8 @ total) @ p8, so the sandwich reuses
    # the one-sided product. Both products share one (2, N, 8, 8) buffer, so
    # the trace-out, the traces and the division run once on the stack. A
    # failing row may give inf or nan in later steps, which is harmless:
    # only its first failing check is reported.
    with np.errstate(all="ignore"):
        products = np.empty((2, len(c), 8, 8), dtype=complex)
        np.matmul(p8, total_states(c), out=products[0])
        np.matmul(products[0], p8, out=products[1])
        marginals = trace_out_sender_pair(products)
        del products  # a (2, N, 8, 8) temporary
        traces = marginals[..., 0, 0] + marginals[..., 1, 1]
        ansatz, sandwich = marginals / traces.real[..., None, None]
        raw, (trace, total) = marginals[0], traces
    require_rows((renormalization_table, raw), (two_sided_trace_table, total))
    return ansatz, sandwich, np.abs(ansatz - sandwich).max(axis=(1, 2)), total.real / trace.real


def compare_conventions(u: PreparationTensor, c: CoefficientVector) -> ConventionResult:
    """Run both updates on the same input and record their difference: ``_compare_rows`` on one row."""
    ansatz, sandwich, diff, ratio = _compare_rows(u, c.as_vector()[None])
    return ConventionResult(
        ansatz=ansatz[0], sandwich=sandwich[0], max_abs_diff=float(diff[0]), prenorm_ratio=float(ratio[0])
    )
