"""Two state-update conventions for the sender's preparation, and their comparison.

The one-sided ansatz applies the preparation once and renormalizes by the
trace; the two-sided (Lüders-type) rule sandwiches the state between two
copies of the preparation before renormalizing. For idempotent preparations
both produce the same receiver state; for the automatic preparation the
sandwich numerator is exactly twice the one-sided one and renormalization
absorbs the factor.

The comparison of a stack of inputs (``_compare_rows``) takes the two 8x8
products that ``alice_prepare`` and ``sandwich_numerator`` compute. One
input's comparison (``compare_conventions``) under the four Bell
preparations or the automatic one takes none: their operators satisfy
P @ P = w P, so both updates give the session state without correction,
the gap is 0.0 and the ratio is w. That state is bitwise the 8x8 products'
on sampled, boundary and signed-zero inputs; on subnormal parts the 8x8
path rounds twice and may differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import renormalization_table, require, require_columns, trace_out_sender_pair, two_sided_trace_table
from .protocol import (
    CoefficientVector, PreparationTensor, _coefficient_batch, _row_state, resolve_preparation, total_state,
    total_states,
)


def sandwich_numerator(u: PreparationTensor | int, c: CoefficientVector) -> np.ndarray:
    """Receiver-side operator of the two-sided update, before normalization; ``u`` may be a Bell index."""
    p8 = resolve_preparation(u).sender_operator
    return trace_out_sender_pair(p8 @ total_state(c) @ p8)


def prepare_sandwich(u: PreparationTensor | int, c: CoefficientVector) -> np.ndarray:
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
    automatic one. For those five preparations ``compare_conventions``
    gives one read-only state as both ``ansatz`` and ``sandwich``.
    """

    ansatz: np.ndarray
    sandwich: np.ndarray
    max_abs_diff: float
    prenorm_ratio: float


@np.errstate(all="ignore")  # as a decorator, errstate costs about half what a with block does
def _both_updates(p8: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_compare_rows``' arithmetic, unchecked: the raw one-sided marginals, both traces and both states.

    p8 @ total @ p8 evaluates as (p8 @ total) @ p8, so the sandwich reuses
    the one-sided product. Both products share one (2, N, 8, 8) buffer, so
    the trace-out, the traces and the division run once on the stack. A
    failing row may give inf or nan in later steps, which is harmless:
    only its first failing check is reported.
    """
    products = np.empty((2, len(c), 8, 8), dtype=complex)
    np.matmul(p8, total_states(c), out=products[0])
    np.matmul(products[0], p8, out=products[1])
    marginals = trace_out_sender_pair(products)
    del products  # a (2, N, 8, 8) temporary
    traces = marginals[..., 0, 0] + marginals[..., 1, 1]
    return marginals[0], traces, marginals / traces.real[..., None, None]


def _compare_rows(
    u: PreparationTensor | int, coeffs
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both updates of one preparation on each of a batch of inputs, through the 8x8 products.

    ``u`` is a PreparationTensor or a Bell index (``resolve_preparation``).
    ``coeffs`` is an ``(N, 4)`` array of checked input coefficient rows, as
    ``coefficient_rows`` gives them. Returns the ``ConventionResult`` fields
    stacked: the ``(N, 2, 2)`` one-sided and two-sided states, and the
    ``(N,)`` gaps and ratios. Row i is bitwise what one comparison of input
    i on the two separate 8x8 paths gives: renormalize(alice_prepare(u, c)),
    prepare_sandwich(u, c) and the traces of alice_prepare and
    sandwich_numerator. Every tensor takes these products, the known ones
    too, so a batch of known weights checks P @ P = w P on them. A row that
    fails renormalize's checks or the two-sided trace check raises
    ValueError with the message of the lowest failing row's first failing
    check (``require`` on that row). Those are the one-operator functions' messages
    for rows from ``coefficient_rows`` or ``CoefficientVector``, which sit
    far below MAX_ENTRY; on rows with entries past it the kernel gives the
    check tables' verdicts, not the bound message.
    """
    u = resolve_preparation(u)
    raw, (trace, total), (ansatz, sandwich) = _both_updates(u.sender_operator, _coefficient_batch(coeffs))
    require_columns((renormalization_table, raw.reshape(-1, 4).T), (two_sided_trace_table, (total,)))
    return ansatz, sandwich, np.abs(ansatz - sandwich).max(axis=(1, 2)), total.real / trace.real


@np.errstate(all="ignore")
def compare_conventions(u: PreparationTensor | int, c: CoefficientVector) -> ConventionResult:
    """Run both updates on the same input and record their difference.

    Weights byte-equal to a known preparation's give the session state
    without correction (``_row_state``) as both states, gap 0.0 and ratio
    ``diagonal_weight()``; any other tensor takes ``_compare_rows`` on one row.
    """
    u = resolve_preparation(u)
    ratio = u._exact_ratio
    if ratio is None:
        ansatz, sandwich, diffs, ratios = _compare_rows(u, c.row)
        ansatz, sandwich, diff, ratio = ansatz[0], sandwich[0], diffs.item(0), ratios.item(0)
    else:
        ansatz = sandwich = _row_state(u.coefficient_map, c.row)
        diff = 0.0
    record = object.__new__(ConventionResult)  # the constructor's record, without its per-field object.__setattr__
    record.__dict__.update(ansatz=ansatz, sandwich=sandwich, max_abs_diff=diff, prenorm_ratio=ratio)
    return record
