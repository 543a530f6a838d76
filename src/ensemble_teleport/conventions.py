"""Two state-update conventions for the sender's preparation, and their comparison.

The one-sided ansatz applies the preparation once and renormalizes by the
trace; the two-sided (Lüders-type) rule sandwiches the state between two
copies of the preparation before renormalizing. For idempotent preparations
both produce the same receiver state; for the automatic preparation the
sandwich numerator is exactly twice the one-sided one and renormalization
absorbs the factor.

The comparison runs on stacks of inputs (``_compare_rows``), and
``compare_conventions`` is its one-input call. Both updates are linear in
the input's coefficient 4-vector. For the four Bell preparations and the
automatic one, the comparison applies the tensor's two cached 4x4 maps
(``PreparationTensor._convention_maps``), whose products round nothing;
every other tensor takes the two 8x8 products (``_both_updates``), which
``sandwich_numerator`` and ``alice_prepare`` also compute. Either way each
row is bitwise what the 8x8 products give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    renormalization_table,
    require,
    require_rows,
    trace_out_sender_pair,
    two_sided_trace_table,
)
from .protocol import (
    CoefficientVector, PreparationTensor, _coefficient_batch, resolve_preparation, total_state, total_states,
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
    automatic one.
    """

    ansatz: np.ndarray
    sandwich: np.ndarray
    max_abs_diff: float
    prenorm_ratio: float


def _renormalized(marginals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw one-sided marginals, both traces and both states of a ``(2, N, 2, 2)`` stack of raw marginals."""
    traces = marginals[..., 0, 0] + marginals[..., 1, 1]
    return marginals[0], traces, marginals / traces.real[..., None, None]


@np.errstate(all="ignore")  # as a decorator, errstate costs about half what a with block does
def _both_updates(p8: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_compare_rows``' arithmetic on the 8x8 path, unchecked: ``_renormalized`` of both raw marginals.

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
    return _renormalized(marginals)


@np.errstate(all="ignore")
def _mapped_updates(maps: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_both_updates`` through a known tensor's ``(2, 4, 4)`` convention maps: the same bits, no 8x8 product."""
    return _renormalized((maps[:, None] @ c[None, :, :, None]).reshape(2, len(c), 2, 2))


def _compare_rows(
    u: PreparationTensor | int, coeffs
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both updates of one preparation on each of a batch of inputs.

    ``u`` is a PreparationTensor or a Bell index (``resolve_preparation``).
    ``coeffs`` is an ``(N, 4)`` array of checked input coefficient rows, as
    ``coefficient_rows`` gives them. Returns the ``ConventionResult`` fields
    stacked: the ``(N, 2, 2)`` one-sided and two-sided states, and the
    ``(N,)`` gaps and ratios. Row i is bitwise what one comparison of input
    i gives: renormalize(alice_prepare(u, c)), prepare_sandwich(u, c) and
    the traces of alice_prepare and sandwich_numerator. Weights byte-equal
    to a Bell or the automatic preparation take their convention maps,
    whose products are exact; all other weights, even those within EQ_TOL
    of a known tensor, take the 8x8 products, whose rounding the maps would
    not reproduce. A row that fails renormalize's checks or the two-sided
    trace check raises ValueError with the message of the lowest failing
    row's first failing check (``require_rows``). Those are the one-operator
    functions' messages for rows from ``coefficient_rows`` or
    ``CoefficientVector``, which sit far below MAX_ENTRY; on rows with
    entries past it the kernel gives the check tables' verdicts, not the
    bound message.
    """
    u = resolve_preparation(u)
    c = _coefficient_batch(coeffs)
    maps = u._convention_maps
    updates = _both_updates(u.sender_operator, c) if maps is None else _mapped_updates(maps, c)
    raw, (trace, total), (ansatz, sandwich) = updates
    require_rows((renormalization_table, raw), (two_sided_trace_table, total))
    return ansatz, sandwich, np.abs(ansatz - sandwich).max(axis=(1, 2)), total.real / trace.real


def compare_conventions(u: PreparationTensor | int, c: CoefficientVector) -> ConventionResult:
    """Run both updates on the same input and record their difference: ``_compare_rows`` on one row."""
    ansatz, sandwich, diff, ratio = _compare_rows(u, c.row)
    record = object.__new__(ConventionResult)  # the constructor's record, without its per-field object.__setattr__
    record.__dict__.update(
        ansatz=ansatz[0], sandwich=sandwich[0], max_abs_diff=diff.item(0), prenorm_ratio=ratio.item(0)
    )
    return record
