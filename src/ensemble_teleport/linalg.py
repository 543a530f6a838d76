"""Dense complex matrix algebra for two-, four-, and eight-dimensional operator spaces.

Everything here is a pure function on numpy arrays. Index convention: a
composite space is ordered so that the *last* factor's index varies fastest,
which is exactly how ``numpy.kron`` composes matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

LOCAL_DIM = 2
SUPPORTED_DIMS = (2, 4, 8)
SUBSYSTEM_LABELS = ("C", "A", "B")

# Tolerance table: every numerical check in the package uses one of these.
EQ_TOL = 1e-12  # plain equalities: coefficient invariants, classification, imaginary parts
HERMITICITY_TOL = 1e-10  # largest entry of |M - M^dagger| for a Hermitian operator
EIGENVALUE_TOL = 1e-10  # how far a positive semidefinite operator's eigenvalue may undershoot 0
TRACE_TOL = 1e-9  # |Tr M - 1| for a unit-trace operator
ANNIHILATION_TOL = 1e-9  # a trace at or below this means the ensemble was annihilated
AGREE_TOL = 1e-9  # largest gap between two formulations of the same quantity


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
        raise ValueError("matrix contains NaN or Inf entries")
    return arr


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered two-level factors describing how an index space factorizes.

    Labels are drawn from {C, A, B} and must be unique. The layout's
    dimension is 2 ** len(factors).
    """

    factors: tuple[str, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("layout needs at least one factor")
        for label in factors:
            if label not in SUBSYSTEM_LABELS:
                raise ValueError(
                    f"unknown subsystem label {label!r}; expected one of {SUBSYSTEM_LABELS}"
                )
        if len(set(factors)) != len(factors):
            raise ValueError(f"duplicate labels in layout {factors}")

    @property
    def dim(self) -> int:
        return LOCAL_DIM ** len(self.factors)

    def axis(self, label: str) -> int:
        if label not in self.factors:
            raise ValueError(f"label {label!r} not in layout {self.factors}")
        return self.factors.index(label)


LAYOUT_CAB = SubsystemLayout(("C", "A", "B"))
LAYOUT_CA = SubsystemLayout(("C", "A"))
LAYOUT_AB = SubsystemLayout(("A", "B"))


def _check_layout(m, layout: SubsystemLayout) -> np.ndarray:
    arr = as_matrix(m)
    if arr.shape[0] != layout.dim:
        raise ValueError(
            f"matrix dimension {arr.shape[0]} does not match layout "
            f"{layout.factors} of dimension {layout.dim}"
        )
    return arr


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit dimension check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"dimension mismatch in matrix product: {a.shape[0]} vs {b.shape[0]}"
        )
    return a @ b


def tensor(a, b) -> np.ndarray:
    """Kronecker product; the second factor's index varies fastest."""
    a = as_matrix(a)
    b = as_matrix(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > max(SUPPORTED_DIMS):
        raise ValueError(
            f"tensor product dimension {out_dim} exceeds the supported maximum "
            f"{max(SUPPORTED_DIMS)}"
        )
    return np.kron(a, b)


def trace(a) -> complex:
    """Sum of diagonal entries."""
    return complex(np.trace(as_matrix(a)))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T.copy()


def partial_trace(m, layout: SubsystemLayout, traced_out: Iterable[str]) -> np.ndarray:
    """Trace out the named factors, keeping the operator on the remaining ones.

    The full trace is preserved: trace(result) == trace(m).
    """
    arr = _check_layout(m, layout)
    traced = set(traced_out)
    for label in traced:
        if label not in layout.factors:
            raise ValueError(
                f"cannot trace out {label!r}: not in layout {layout.factors}"
            )
    if len(traced) >= len(layout.factors):
        raise ValueError("cannot trace out every factor; use trace() instead")

    n = len(layout.factors)
    t = arr.reshape((LOCAL_DIM,) * (2 * n))
    remaining = list(layout.factors)
    for label in [f for f in layout.factors if f in traced]:
        k = remaining.index(label)
        t = np.trace(t, axis1=k, axis2=k + len(remaining))
        remaining.pop(k)
    dim = LOCAL_DIM ** len(remaining)
    return t.reshape(dim, dim)


def partial_transpose(m, layout: SubsystemLayout, on: str) -> np.ndarray:
    """Transpose applied to one factor's indices only."""
    arr = _check_layout(m, layout)
    k = layout.axis(on)
    n = len(layout.factors)
    t = arr.reshape((LOCAL_DIM,) * (2 * n))
    axes = list(range(2 * n))
    axes[k], axes[k + n] = axes[k + n], axes[k]
    return t.transpose(axes).reshape(layout.dim, layout.dim)


def embed(op, factors, layout: SubsystemLayout = LAYOUT_CAB) -> np.ndarray:
    """Extend an operator on the named factors by the identity on the rest.

    ``factors`` names, in the operator's own index order, the layout factors
    the operator acts on; the result is index-permuted to the layout's
    global ordering.
    """
    if isinstance(factors, SubsystemLayout):
        factors = factors.factors
    factors = tuple(factors)
    op = as_matrix(op)
    if op.shape[0] != LOCAL_DIM ** len(factors):
        raise ValueError(
            f"operator dimension {op.shape[0]} does not match {len(factors)} factors"
        )
    for label in factors:
        if label not in layout.factors:
            raise ValueError(f"factor {label!r} not in layout {layout.factors}")
    rest = [f for f in layout.factors if f not in factors]
    if not rest:
        return op.copy()

    big = np.kron(op, np.eye(LOCAL_DIM ** len(rest), dtype=complex))
    current = list(factors) + rest
    n = len(layout.factors)
    perm = [current.index(f) for f in layout.factors]
    t = big.reshape((LOCAL_DIM,) * (2 * n))
    return t.transpose(perm + [p + n for p in perm]).reshape(layout.dim, layout.dim)


def hermitian_spectrum(a, hermiticity_tol: float = HERMITICITY_TOL) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted descending.

    Uses LAPACK through ``numpy.linalg.eigvalsh`` on the Hermitian part.
    Raises NonHermitianError for inputs whose asymmetry exceeds
    ``hermiticity_tol``.
    """
    arr = as_matrix(a)
    asymmetry = float(np.max(np.abs(arr - arr.conj().T)))
    if asymmetry > hermiticity_tol:
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


def statistical_operator_checks(ops: np.ndarray) -> list:
    """The statistical-operator checks on a stack ``(n, 2, 2)``, for ``raise_first_failure``.

    The batch form of ``require_statistical_operator`` for qubit operators,
    with its messages. In order: finite entries, Hermiticity
    (HERMITICITY_TOL), unit trace (TRACE_TOL) and positivity (smallest
    eigenvalue at least -EIGENVALUE_TOL, by the same closed form). Non-finite
    entries raise floating-point warnings unless the caller silences them.
    """
    finite = np.isfinite(ops).all(axis=(1, 2))
    asymmetry = np.abs(ops - ops.conj().swapaxes(1, 2)).max(axis=(1, 2))
    first, last = ops[:, 0, 0], ops[:, 1, 1]
    tr = first + last
    a, d = first.real, last.real
    smallest = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(ops[:, 0, 1]))
    return [
        (~finite, lambda i: "matrix contains NaN or Inf entries"),
        (asymmetry > HERMITICITY_TOL, lambda i: _NOT_HERMITIAN.format(asymmetry[i])),
        (np.abs(tr - 1.0) > TRACE_TOL, lambda i: _NOT_UNIT_TRACE.format(complex(tr[i]))),
        (smallest < -EIGENVALUE_TOL, lambda i: _NEGATIVE_EIGENVALUE.format(smallest[i])),
    ]


def require_statistical_operator(op) -> None:
    """Raise ValueError naming the first invariant of a statistical operator that fails.

    The invariants are Hermiticity (HERMITICITY_TOL), unit trace (TRACE_TOL)
    and positivity (smallest eigenvalue at least -EIGENVALUE_TOL). A 2x2
    operator [[a, b], [b*, d]] uses the closed form
    (a + d)/2 - sqrt((a - d)^2/4 + |b|^2) for its smallest eigenvalue.
    """
    arr = as_matrix(op)
    asymmetry = np.abs(arr - arr.conj().T).max()
    if asymmetry > HERMITICITY_TOL:
        raise ValueError(_NOT_HERMITIAN.format(asymmetry))
    tr = complex(arr.trace())
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(_NOT_UNIT_TRACE.format(tr))
    if arr.shape[0] == 2:
        a, d = arr[0, 0].real, arr[1, 1].real
        smallest = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(arr[0, 1]))
    else:
        smallest = np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))[0]
    if smallest < -EIGENVALUE_TOL:
        raise ValueError(_NEGATIVE_EIGENVALUE.format(smallest))


def spectral_norm(a) -> float:
    """Largest eigenvalue magnitude of a Hermitian matrix."""
    values = hermitian_spectrum(a)
    return float(np.max(np.abs(values)))
