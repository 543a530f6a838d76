"""Dense complex matrix algebra for two-, four-, and eight-dimensional operator spaces.

Everything here is a pure function on numpy arrays. Index convention: a
composite space is ordered so that the *last* factor's index varies fastest,
which is exactly how ``numpy.kron`` composes matrices. The one three-party
space is C ⊗ A ⊗ B (input, sender half, receiver half), and the one pair
operation besides the trace-out is the partial transpose on the second qubit.
"""

from __future__ import annotations

import cmath

import numpy as np

SUPPORTED_DIMS = (2, 4, 8)

# Tolerance table: every numerical check in the package uses one of these.
EQ_TOL = 1e-12  # plain equalities: coefficient invariants, classification, imaginary parts
HERMITICITY_TOL = 1e-10  # largest entry of |M - M^dagger| for a Hermitian operator
EIGENVALUE_TOL = 1e-10  # how far a positive semidefinite operator's eigenvalue may undershoot 0
TRACE_TOL = 1e-9  # |Tr M - 1| for a unit-trace operator
ANNIHILATION_TOL = 1e-9  # a trace at or below this means the ensemble was annihilated
AGREE_TOL = 1e-9  # largest gap between two formulations of the same quantity

_NOT_FINITE = "matrix contains NaN or Inf entries"


class NonHermitianError(ValueError):
    """A Hermitian-only operation received a matrix that is not Hermitian.

    Carries the offending asymmetry magnitude as ``asymmetry``.
    """

    def __init__(self, asymmetry: float):
        self.asymmetry = float(asymmetry)
        super().__init__(
            f"matrix is not Hermitian: max |M - M^dagger| = {self.asymmetry:.3e}"
        )


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex array of supported dimension.

    Rejects non-square shapes, dimensions outside {2, 4, 8}, and any
    NaN/Inf entry.
    """
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] not in SUPPORTED_DIMS:
        raise ValueError(
            f"matrix dimension {arr.shape[0]} unsupported; must be one of {SUPPORTED_DIMS}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(_NOT_FINITE)
    return arr


_I2 = np.eye(2, dtype=complex)
_I2.setflags(write=False)


def stacked_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a_i, b) for every matrix a_i of a stack ``(..., m, n)`` and one matrix b.

    Broadcasting forms the same products as ``numpy.kron``, bit for bit,
    without its general-purpose set-up.
    """
    (m, n), (p, q) = a.shape[-2:], b.shape
    return (a[..., :, None, :, None] * b[:, None, :]).reshape(*a.shape[:-2], m * p, n * q)


def embed_sender_pair(op: np.ndarray) -> np.ndarray:
    """Extend a 4x4 operator on the sender pair (C, A) by the identity on B: kron(op, I2)."""
    return stacked_kron(op, _I2)


def trace_out_sender_pair(m: np.ndarray) -> np.ndarray:
    """Receiver marginals of 8x8 operators ``(..., 8, 8)`` on C ⊗ A ⊗ B: trace out C, then A."""
    # Two pairwise sums in this order fix the rounding of every entry; a
    # single einsum over (c, a) adds in another order and moves last bits.
    t = np.trace(m.reshape(m.shape[:-2] + (2,) * 6), axis1=-6, axis2=-3)
    return np.trace(t, axis1=-4, axis2=-2)


def _pair_operator(m) -> np.ndarray:
    """``as_matrix(m)``, which must be a 4x4 operator on a pair of qubits."""
    arr = as_matrix(m)
    if arr.shape != (4, 4):
        raise ValueError(
            f"partial transpose expects a 4x4 operator on a qubit pair, got shape {arr.shape}"
        )
    return arr


def partial_transpose(m) -> np.ndarray:
    """Transpose of the second factor of a 4x4 operator on a pair of qubits.

    Entry [2i + j, 2k + l] of the result is entry [2i + l, 2k + j] of ``m``.
    """
    return _pair_operator(m).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


# h.ravel()[_WITH_PARTIAL_TRANSPOSE] is the stack [h, partial_transpose(h)] of a 4x4 h.
_WITH_PARTIAL_TRANSPOSE = np.concatenate(
    [np.arange(16), np.arange(16).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).ravel()]
).reshape(2, 4, 4)
_WITH_PARTIAL_TRANSPOSE.setflags(write=False)


def hermitian_spectrum(a) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted descending.

    Uses LAPACK through ``numpy.linalg.eigvalsh`` on the Hermitian part.
    Raises NonHermitianError for inputs whose asymmetry exceeds
    HERMITICITY_TOL.
    """
    arr = as_matrix(a)
    asymmetry = float(np.max(np.abs(arr - arr.conj().T)))
    if asymmetry > HERMITICITY_TOL:
        raise NonHermitianError(asymmetry)
    return np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))[::-1]


def raise_first_failure(checks) -> None:
    """Raise ValueError for the lowest-index row that fails any of ``checks``.

    ``checks`` lists (mask, message) pairs in the order one row is checked:
    ``mask`` flags the failing rows and ``message(i)`` words row i's failure.
    The error carries the message of that row's first failing check, which is
    what checking the rows one at a time would raise first.
    """
    failed = np.array([mask for mask, _ in checks])
    if np.count_nonzero(failed):
        row = int(np.argmax(failed.any(axis=0)))
        raise ValueError(checks[int(np.argmax(failed[:, row]))][1](row))


_NOT_HERMITIAN = "not a statistical operator: not Hermitian (asymmetry {:.3e})"
_NOT_UNIT_TRACE = "not a statistical operator: not unit-trace (trace {:.12g})"
_NEGATIVE_EIGENVALUE = "not a statistical operator: negative eigenvalue {:.3e}"

# Each statistical-operator check has a scalar form, on Python numbers, and a
# batch form, on stacks. Both take every complex modulus as libm hypot of the
# parts (abs() of a Python complex, np.hypot on arrays), so they agree to the
# last bit; np.abs of a complex array differs from it in the last bit.


def modulus(z: complex) -> float:
    """|z| as libm hypot of its parts, the value np.hypot gives; inf where it overflows."""
    try:
        return abs(z)
    except OverflowError:  # a finite z whose modulus exceeds the largest double
        return float("inf")


def require_finite(entries) -> None:
    """Raise ValueError unless every one of ``entries`` (Python numbers) is finite."""
    if not all(map(cmath.isfinite, entries)):
        raise ValueError(_NOT_FINITE)


def finite_rows(stack: np.ndarray) -> np.ndarray:
    """``np.isfinite(stack).all`` over each row of ``(N, 4)`` or ``(N, 2, 2)``, as ``&`` of four columns."""
    finite = np.isfinite(stack).reshape(-1, 4)
    return finite[:, 0] & finite[:, 1] & finite[:, 2] & finite[:, 3]


def require_qubit_operator(entries) -> None:
    """The statistical-operator checks on one 2x2 operator given as its four entries.

    ``entries`` are Python complex numbers in row-major order. The scalar
    form of ``statistical_operator_checks``: same order, same values, same
    messages.
    """
    require_finite(entries)
    a, b, c, d = entries
    # The largest entry of |M - M^dagger|: 2|Im| on the diagonal, |b - c*| off it.
    asymmetry = max(2 * abs(a.imag), 2 * abs(d.imag), modulus(b - c.conjugate()))
    if asymmetry > HERMITICITY_TOL:
        raise ValueError(_NOT_HERMITIAN.format(asymmetry))
    tr = a + d
    if modulus(tr - 1.0) > TRACE_TOL:
        raise ValueError(_NOT_UNIT_TRACE.format(tr))
    smallest = 0.5 * (a.real + d.real) - modulus(complex(0.5 * (a.real - d.real), modulus(b)))
    if smallest < -EIGENVALUE_TOL:
        raise ValueError(_NEGATIVE_EIGENVALUE.format(smallest))


def statistical_operator_checks(ops: np.ndarray) -> list:
    """The statistical-operator checks on a stack ``(n, 2, 2)``, for ``raise_first_failure``.

    The batch form of ``require_qubit_operator``, with its messages. In
    order: finite entries, Hermiticity (HERMITICITY_TOL), unit trace
    (TRACE_TOL) and positivity (smallest eigenvalue at least
    -EIGENVALUE_TOL, by the same closed form). Non-finite entries raise
    floating-point warnings unless the caller silences them.
    """
    finite = finite_rows(ops)
    a, b, c, d = ops[:, 0, 0], ops[:, 0, 1], ops[:, 1, 0], ops[:, 1, 1]
    asymmetry = np.maximum(
        np.maximum(2 * np.abs(a.imag), 2 * np.abs(d.imag)), np.hypot(b.real - c.real, b.imag + c.imag)
    )
    tr = a + d
    smallest = 0.5 * (a.real + d.real) - np.hypot(0.5 * (a.real - d.real), np.hypot(b.real, b.imag))
    return [
        (~finite, lambda i: _NOT_FINITE),
        (asymmetry > HERMITICITY_TOL, lambda i: _NOT_HERMITIAN.format(asymmetry[i])),
        (np.hypot(tr.real - 1.0, tr.imag) > TRACE_TOL, lambda i: _NOT_UNIT_TRACE.format(complex(tr[i]))),
        (smallest < -EIGENVALUE_TOL, lambda i: _NEGATIVE_EIGENVALUE.format(smallest[i])),
    ]


def require_statistical_operator(op) -> None:
    """Raise ValueError naming the first invariant of a statistical operator that fails.

    The invariants are Hermiticity (HERMITICITY_TOL), unit trace (TRACE_TOL)
    and positivity (smallest eigenvalue at least -EIGENVALUE_TOL). A 2x2
    operator [[a, b], [b*, d]] goes to ``require_qubit_operator``, which
    uses the closed form (a + d)/2 - sqrt((a - d)^2/4 + |b|^2) for its
    smallest eigenvalue; larger ones use the eigensolver.
    """
    arr = as_matrix(op)
    if arr.shape[0] == 2:
        require_qubit_operator(arr.ravel().tolist())
        return
    hermitian, _ = _unit_trace_hermitian_part(arr)
    smallest = np.linalg.eigvalsh(hermitian)[0]
    if smallest < -EIGENVALUE_TOL:
        raise ValueError(_NEGATIVE_EIGENVALUE.format(smallest))


def _unit_trace_hermitian_part(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian part of a checked ``as_matrix`` operator, and its gap ``arr - arr^dagger``.

    Runs the Hermiticity and unit-trace checks of ``require_statistical_operator``,
    in its order and with its messages; positivity is left to the caller's eigensolve.
    """
    gap = arr - arr.conj().T
    asymmetry = np.hypot(gap.real, gap.imag).max()
    if asymmetry > HERMITICITY_TOL:
        raise ValueError(_NOT_HERMITIAN.format(asymmetry))
    tr = complex(arr.trace())
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(_NOT_UNIT_TRACE.format(tr))
    return 0.5 * (arr + arr.conj().T), gap


def _pair_spectra(op) -> np.ndarray:
    """Ascending spectra of a two-qubit statistical operator and of its partial transpose.

    Rows 0 and 1 of one ``eigvalsh`` call on the stacked Hermitian parts;
    they are bitwise ``eigvalsh`` of the Hermitian part of ``op`` and
    ``hermitian_spectrum(partial_transpose(op))[::-1]``, because the
    Hermitian part of the transpose is a permutation of that of ``op``.
    Raises as ``partial_transpose(op)``, then ``require_statistical_operator(op)``,
    then ``hermitian_spectrum`` of the transpose would, in that order.
    """
    arr = _pair_operator(op)
    hermitian, gap = _unit_trace_hermitian_part(arr)
    spectra = np.linalg.eigvalsh(hermitian.ravel()[_WITH_PARTIAL_TRANSPOSE])
    if spectra[0, 0] < -EIGENVALUE_TOL:
        raise ValueError(_NEGATIVE_EIGENVALUE.format(spectra[0, 0]))
    # The transpose's gap is a permutation of op's; np.abs, not hypot, as hermitian_spectrum.
    asymmetry = float(np.max(np.abs(gap)))
    if asymmetry > HERMITICITY_TOL:
        raise NonHermitianError(asymmetry)
    return spectra


def spectral_norm(a) -> float:
    """Largest eigenvalue magnitude of a Hermitian matrix."""
    values = hermitian_spectrum(a)
    return float(np.max(np.abs(values)))
