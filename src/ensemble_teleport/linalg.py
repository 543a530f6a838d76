"""Dense complex matrix algebra for two-, four-, and eight-dimensional operator spaces.

Everything here is a pure function on numpy arrays. Index convention: a
composite space is ordered so that the *last* factor's index varies fastest,
which is exactly how ``numpy.kron`` composes matrices. The one three-party
space is C ⊗ A ⊗ B (input, sender half, receiver half), and the one pair
operation besides the trace-out is the partial transpose on the second qubit.
"""

from __future__ import annotations

import math
from cmath import isfinite
from types import SimpleNamespace

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


def as_matrix(m, n: int | None = None) -> np.ndarray:
    """Coerce input to a square complex array of supported dimension.

    Rejects a shape other than (n, n) when the size ``n`` is given, then
    non-square shapes, dimensions outside {2, 4, 8}, and any NaN/Inf entry.
    """
    arr = np.asarray(m, dtype=complex)
    if n is not None and arr.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} operator, got shape {arr.shape}")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] not in SUPPORTED_DIMS:
        raise ValueError(
            f"matrix dimension {arr.shape[0]} unsupported; must be one of {SUPPORTED_DIMS}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(_NOT_FINITE)
    return arr


def frozen(a, dtype=None) -> np.ndarray:
    """A new array holding ``a`` over an immutable bytes buffer, for arrays that calls share: no view of it can be made writable.

    ``setflags(write=True)`` undoes the read-only flag of an array that owns
    its memory, and of a view of a writable array, but not of an array, nor
    of any view along its ``.base`` chain, over a buffer that is read-only.
    """
    owner = np.array(a, dtype=dtype)
    return np.frombuffer(owner.tobytes(), owner.dtype).reshape(owner.shape)


_I2 = frozen(np.eye(2, dtype=complex))


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


def partial_transpose(m) -> np.ndarray:
    """Transpose of the second factor of a 4x4 operator on a pair of qubits.

    Entry [2i + j, 2k + l] of the result is entry [2i + l, 2k + j] of ``m``.
    """
    return as_matrix(m, 4).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


# h.ravel()[_WITH_PARTIAL_TRANSPOSE] is the stack [h, partial_transpose(h)] of a 4x4 h.
_WITH_PARTIAL_TRANSPOSE = frozen(
    np.concatenate([np.arange(16), np.arange(16).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).ravel()]).reshape(2, 4, 4)
)


@np.errstate(over="ignore", invalid="ignore")  # as a decorator, errstate costs about half what a with block does
def _hermitian_part(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """An operator's Hermitian part, finite for every finite operator, and its asymmetry max |arr - arr^dagger|.

    The asymmetry is the largest np.hypot of the gap's parts, as the tables take moduli; inf if the gap overflows.
    """
    adjoint = arr.conj().T
    gap = arr - adjoint
    asymmetry = float(np.hypot(gap.real, gap.imag).max())
    hermitian = 0.5 * (arr + adjoint)
    if not np.isfinite(hermitian).all():  # halve before adding only here: halving rounds subnormals
        hermitian = 0.5 * arr + 0.5 * adjoint
    return hermitian, asymmetry


def hermitian_spectrum(a) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted descending.

    Solves the Hermitian part through ``_eigenvalues``. Raises
    NonHermitianError for inputs whose asymmetry exceeds HERMITICITY_TOL,
    and ValueError when an eigenvalue overflows, as one does wherever the
    modulus of an entry, at most the spectral norm, exceeds the largest double.
    """
    hermitian, asymmetry = _hermitian_part(as_matrix(a))
    if asymmetry > HERMITICITY_TOL:
        raise NonHermitianError(asymmetry)
    spectrum, _ = _eigenvalues(hermitian)
    if not np.isfinite(spectrum).all():
        raise ValueError("spectrum overflows: the eigensolver returned NaN or Inf")
    return spectrum[::-1]


def modulus(z: complex) -> float:
    """|z| as libm hypot of its parts, the value np.hypot gives; inf where it overflows."""
    try:
        return abs(z)
    except OverflowError:  # a finite z whose modulus exceeds the largest double
        return float("inf")


def _nan_unless_finite(a, b, c, d):
    """0.0 when all four parts, real or complex Python numbers, are finite, else NaN."""
    return 0.0 if isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d) else math.nan


# Check tables: each invariant is written once and runs on one row's Python
# numbers or on columns of many rows.
#
# An invariant is (bound, message): a quantity meets it when
# ``quantity <= bound``, so a NaN quantity fails, and otherwise
# ``message(*values)`` names it. A failing comparison ``q > bound`` is kept
# as it is; ``Re t <= ANNIHILATION_TOL`` becomes ``-Re t`` against minus the
# next double above ANNIHILATION_TOL, which fails for the same doubles.
#
# A table ``table(x, parts)`` returns its entries (quantity, invariant,
# values) in checking order; each quantity is one expression over the parts,
# with squares as ``m * m``. The arithmetic ``x`` supplies what differs
# between Python numbers and columns: moduli, as abs() of a Python complex
# or np.hypot of the parts, both libm hypot, so they agree to the last bit
# (np.abs of a complex array and math.hypot do not); the maximum of three
# values; and 0.0 or NaN for four parts that are all finite or not.
ON_NUMBERS = SimpleNamespace(modulus=modulus, maximum=max, nan_unless_finite=_nan_unless_finite)
ON_COLUMNS = SimpleNamespace(
    modulus=lambda z: np.hypot(z.real, z.imag),
    maximum=lambda p, q, r: np.maximum(np.maximum(p, q), r),
    nan_unless_finite=lambda a, b, c, d: np.where(
        np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d), 0.0, np.nan
    ),
)

FINITE = (0.0, _NOT_FINITE.format)
HERMITIAN = (HERMITICITY_TOL, "not a statistical operator: not Hermitian (asymmetry {:.3e})".format)
UNIT_TRACE = (TRACE_TOL, "not a statistical operator: not unit-trace (trace {:.12g})".format)
POSITIVE = (EIGENVALUE_TOL, "not a statistical operator: negative eigenvalue {:.3e}".format)
_REAL_OVERLAP = (
    EQ_TOL,
    lambda t: f"fidelity has non-negligible imaginary part {t.imag:.3e}; the pipeline produced a non-Hermitian state",
)
_FINITE_COEFFICIENTS = (0.0, "coefficients contain NaN or Inf".format)
_COEFFICIENT_TRACE = (EQ_TOL, "trace constraint violated: c11 + c22 = {!r}, expected 1".format)
_NONNEGATIVE = (EQ_TOL, "nonnegativity constraint violated: c11 = {!r}, c22 = {!r}".format)
_COEFFICIENT_HERMITIAN = (
    EQ_TOL, "hermiticity constraint violated: c21 = {!r} is not conj(c12) = {!r}".format
)
# |c12|^2 - (c11*c22 + EQ_TOL) <= 0 exactly when |c12|^2 <= c11*c22 + EQ_TOL:
# the difference of two doubles is 0 only when they are equal.
_COEFFICIENT_POSITIVE = (0.0, "positivity constraint violated: |c12|^2 = {!r} exceeds c11*c22 = {!r}".format)
_BLOCH_LENGTH = (1.0 + EQ_TOL, lambda r2: f"Bloch vector length {np.sqrt(r2)} exceeds 1")


def qubit_operator_table(x, entries) -> tuple:
    """The statistical-operator checks on a 2x2 operator [[a, b], [c, d]]: finite, then the invariants.

    The asymmetry is 2|Im| on the diagonal and |b - c*| off it, and the
    smallest eigenvalue has the closed form (a + d)/2 - |(a - d)/2 + i|b||.
    """
    a, b, c, d = entries
    asymmetry = x.maximum(2 * abs(a.imag), 2 * abs(d.imag), x.modulus(b - c.conjugate()))
    trace = a + d
    smallest = 0.5 * (a.real + d.real) - x.modulus(0.5 * (a.real - d.real) + 1j * x.modulus(b))
    return (
        (x.nan_unless_finite(a, b, c, d), FINITE, ()),
        (asymmetry, HERMITIAN, (asymmetry,)),
        (x.modulus(trace - 1.0), UNIT_TRACE, (trace,)),
        (-smallest, POSITIVE, (smallest,)),
    )


def coefficient_table(x, parts) -> tuple:
    """The CoefficientVector invariants on (c11, c12, c21, c22).

    c11 and c22 may come as complex numbers with zero imaginary part, as in coefficient rows.
    """
    c11, c12, c21, c22 = parts
    c11, c22 = c11.real, c22.real
    total, conj12, product = c11 + c22, c12.conjugate(), c11 * c22
    mag = x.modulus(c12)
    mag2 = mag * mag
    return (
        (x.nan_unless_finite(c11, c12, c21, c22), _FINITE_COEFFICIENTS, ()),
        (abs(total - 1.0), _COEFFICIENT_TRACE, (total,)),
        (-c11, _NONNEGATIVE, (c11, c22)),
        (-c22, _NONNEGATIVE, (c11, c22)),
        (x.modulus(c21 - conj12), _COEFFICIENT_HERMITIAN, (c21, conj12)),
        (mag2 - (product + EQ_TOL), _COEFFICIENT_POSITIVE, (mag2, product)),
    )


def bloch_table(x, parts) -> tuple:
    """``CoefficientVector.from_bloch``'s check on a Bloch vector (x, y, z)."""
    bx, by, bz = parts
    r2 = bx * bx + by * by + bz * bz
    return ((r2, _BLOCH_LENGTH, (r2,)),)


def positive_real_invariants(imaginary, vanishing) -> tuple:
    """The invariants of a trace t that must be real and positive, on |Im t| and on -Re t.

    t passes only when |Im t| <= EQ_TOL and Re t > ANNIHILATION_TOL;
    ``imaginary(t)`` and ``vanishing(t)`` word the two failures.
    """
    return (EQ_TOL, imaginary), (-math.nextafter(ANNIHILATION_TOL, math.inf), vanishing)


def scalar_table(real, positive=None):
    """A table on one complex number t, which each message takes: |Im t| against ``real``, then -Re t against ``positive`` if given."""

    def table(x, parts):
        t, = values = parts
        if positive is None:
            return ((abs(t.imag), real, values),)
        return (abs(t.imag), real, values), (-t.real, positive, values)

    return table


_REAL_TRACE, _UNANNIHILATED = positive_real_invariants(
    lambda t: f"cannot renormalize: trace has imaginary part {t.imag:.3e}",
    lambda t: f"preparation annihilated the ensemble: trace {t.real:.3e} <= {ANNIHILATION_TOL}",
)
renormalizable_trace_table = scalar_table(_REAL_TRACE, _UNANNIHILATED)


def renormalization_table(x, entries) -> tuple:
    """``renormalize``'s checks on a 2x2 operator [[a, b], [c, d]]: finite entries, then its trace a + d."""
    a, b, c, d = entries
    return ((x.nan_unless_finite(a, b, c, d), FINITE, ()),) + renormalizable_trace_table(x, (a + d,))


_TWO_SIDED_ANNIHILATED = "two-sided update annihilated the ensemble: total trace {!r}".format
_TWO_SIDED_REAL, _TWO_SIDED_UNANNIHILATED = positive_real_invariants(
    _TWO_SIDED_ANNIHILATED, _TWO_SIDED_ANNIHILATED
)
two_sided_trace_table = scalar_table(_TWO_SIDED_REAL, _TWO_SIDED_UNANNIHILATED)
# fidelity_trace's check that the overlap Tr(rho_in rho_bob) is real
real_overlap_table = scalar_table(_REAL_OVERLAP)


def require(*checks) -> None:
    """The runner on one row: ValueError with the message of its first failing entry.

    Each check is a (table, parts) pair, ``parts`` the row's Python numbers,
    or a one-row array or a tuple of one-element columns of them, which are
    read as Python numbers; the tables run in order.
    """
    for table, parts in checks:
        if isinstance(parts, np.ndarray):
            parts = parts.ravel().tolist()
        elif isinstance(parts[0], np.ndarray):
            parts = [part.item() for part in parts]
        for quantity, (bound, message), values in table(ON_NUMBERS, parts):
            if not quantity <= bound:
                raise ValueError(message(*values))


def require_columns(*checks) -> None:
    """The runner on N >= 1 rows: ValueError for the lowest failing row, with its first failing message.

    Each check is a (table, rows) pair, ``rows`` an (N, ...) array whose
    other axes hold the table's parts or a tuple of the parts' N-long
    columns; the message is the one ``require`` on that row raises.
    """
    # A row that fails one entry may give inf or nan in later ones, which is
    # harmless: only its first failing entry is reported.
    with np.errstate(all="ignore"):
        entries = [
            entry
            for table, rows in checks
            for entry in table(ON_COLUMNS, rows if isinstance(rows, tuple) else rows.reshape(len(rows), -1).T)
        ]
        failed = ~np.array([quantity <= bound for quantity, (bound, _), _ in entries])
    if failed.any():
        row = int(np.argmax(failed.any(axis=0)))
        _, (_, message), values = entries[int(np.argmax(failed[:, row]))]
        raise ValueError(message(*(value[row].item() for value in values)))


def require_rows(*checks) -> None:
    """``require`` on a single row, else ``require_columns``: the choice depends on the row count alone.

    One row costs less as Python numbers than as columns of one, and both
    runners evaluate the same expressions to the same bits.
    """
    rows = checks[0][1]
    n = len(rows[0] if isinstance(rows, tuple) else rows)
    if n == 1:
        require(*checks)
    elif n:
        require_columns(*checks)


def require_statistical_operator(op) -> None:
    """Raise ValueError naming the first invariant of a statistical operator that fails.

    The invariants are Hermiticity (HERMITICITY_TOL), unit trace (TRACE_TOL)
    and positivity (smallest eigenvalue at least -EIGENVALUE_TOL). A 2x2
    operator is checked by ``qubit_operator_table``, which uses the closed
    form for its smallest eigenvalue; larger ones use the eigensolver.
    """
    arr = as_matrix(op)
    if arr.shape[0] == 2:
        require((qubit_operator_table, arr.ravel().tolist()))
        return
    hermitian, asymmetry = _hermitian_part(arr)
    _, smallest = _eigenvalues(hermitian)
    require((_operator_table, (asymmetry, complex(arr.trace()), smallest)))


def _eigenvalues(hermitian: np.ndarray) -> tuple[np.ndarray, float]:
    """Ascending ``eigvalsh`` of a Hermitian part or of a stack of them, and its first eigenvalue as a Python float.

    LAPACK returns NaN when the modulus of an entry exceeds the largest
    double; then the halved stack is solved and its eigenvalues doubled,
    which overflow to +-inf where they exceed it.
    """
    spectra = np.linalg.eigvalsh(hermitian)
    smallest = spectra.item(0)
    if smallest != smallest:  # NaN, tested on a Python float: a valid operator pays no numpy call for it
        with np.errstate(over="ignore"):
            spectra = 2.0 * np.linalg.eigvalsh(0.5 * hermitian)
        smallest = spectra.item(0)
    return spectra, smallest


def _operator_table(x, parts) -> tuple:
    """HERMITIAN, UNIT_TRACE and POSITIVE on an operator's asymmetry, trace and smallest eigenvalue."""
    asymmetry, trace, smallest = parts
    return (
        (asymmetry, HERMITIAN, (asymmetry,)),
        (x.modulus(trace - 1.0), UNIT_TRACE, (trace,)),
        (-smallest, POSITIVE, (smallest,)),
    )


def _pair_spectra(op) -> np.ndarray:
    """Ascending spectra of a two-qubit statistical operator and of its partial transpose.

    Rows 0 and 1 of one ``eigvalsh`` call on the stacked Hermitian parts;
    they are bitwise ``eigvalsh`` of the Hermitian part of ``op`` and
    ``hermitian_spectrum(partial_transpose(op))[::-1]``, because the
    Hermitian part of the transpose is a permutation of that of ``op``;
    where ``eigvalsh`` returns NaN, ``_eigenvalues`` solves both again, halved.
    Raises as ``partial_transpose(op)``, then ``require_statistical_operator(op)``
    would; then ``hermitian_spectrum`` of the transpose cannot raise.
    """
    arr = as_matrix(op, 4)
    hermitian, asymmetry = _hermitian_part(arr)
    spectra, smallest = _eigenvalues(hermitian.ravel()[_WITH_PARTIAL_TRANSPOSE])
    require((_operator_table, (asymmetry, complex(arr.trace()), smallest)))
    return spectra


def spectral_norm(a) -> float:
    """Largest eigenvalue magnitude of a Hermitian matrix."""
    values = hermitian_spectrum(a)
    return float(np.max(np.abs(values)))
