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
MAX_ENTRY = 2.0**400  # largest modulus of an operator's or a preparation tensor's entry (require_bounded)

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


def _checked_entries(m, n: int | None = None) -> tuple[np.ndarray, list]:
    """How an operator enters: its complex array, shape-checked, and its entries as Python numbers, bounded.

    Rejects a shape other than (n, n) when the size ``n`` is given, then
    non-square shapes, dimensions outside {2, 4, 8}, then any NaN/Inf entry
    or entry above MAX_ENTRY (``require_bounded``). The one ``tolist()``
    serves the bound and every check the caller runs on the entries.
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
    entries = arr.ravel().tolist()
    require_bounded(entries)
    return arr, entries


def as_matrix(m, n: int | None = None) -> np.ndarray:
    """Coerce input to a square complex array of supported dimension, raising as ``_checked_entries`` does."""
    return _checked_entries(m, n)[0]


def require_bounded(entries: list, not_finite: str = _NOT_FINITE) -> None:
    """The magnitude check where operators and preparation tensors enter, on their entries as Python numbers.

    Raises ValueError(``not_finite``) when an entry is NaN or Inf, else
    BOUNDED's message for the first entry whose modulus exceeds MAX_ENTRY.
    Past this check every product the package forms stays finite: the
    largest, a two-sided 8x8 product, is at most 256 * MAX_ENTRY**2 < 2**809,
    so the code behind it has no overflow to handle. Every valid input
    passes on one sum of moduli, which is NaN where an entry is.
    """
    try:
        if sum(map(abs, entries)) <= MAX_ENTRY:
            return
    except OverflowError:  # a finite entry whose modulus exceeds the largest double
        pass
    if not all(map(isfinite, entries)):
        raise ValueError(not_finite)
    for z in entries:
        if modulus(z) > MAX_ENTRY:
            raise ValueError(BOUNDED[1](z))


def frozen(a, dtype=None) -> np.ndarray:
    """A new array holding ``a`` over an immutable bytes buffer, for arrays that calls share: no view of it can be made writable.

    ``setflags(write=True)`` undoes the read-only flag of an array that owns
    its memory, and of a view of a writable array, but not of an array, nor
    of any view along its ``.base`` chain, over a buffer that is read-only.
    """
    owner = np.array(a, dtype=dtype)
    return np.frombuffer(owner.tobytes(), owner.dtype).reshape(owner.shape)


_I2 = frozen(np.eye(2, dtype=complex))
# 0.5 + 0j for halving complex arrays: the bits of 0.5 in the same operand place, without a per-call conversion
_HALF = frozen(0.5 + 0j)


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


# (i*n + j, j*n + i) for i <= j: the entries of a flattened n x n operator that M - M^dagger pairs
_MIRRORED = {n: tuple((i * n + j, j * n + i) for i in range(n) for j in range(i, n)) for n in SUPPORTED_DIMS}
# complex(np.trace(m)) from the flattened entries e of an n x n m, in numpy's pairwise order and with
# the 0j it starts from, so the bits are the same
_TRACES = {
    2: lambda e: 0j + (e[0] + e[3]),
    4: lambda e: 0j + ((e[0] + e[5]) + (e[10] + e[15])),
    8: lambda e: 0j + (((e[0] + e[36]) + (e[9] + e[45])) + ((e[18] + e[54]) + (e[27] + e[63]))),
}


def _hermitian_part(arr: np.ndarray, entries: list) -> tuple[np.ndarray, float, complex]:
    """The Hermitian part ``_HALF * (arr + arr^dagger)`` of an entered operator, its asymmetry and its trace.

    ``arr, entries`` are what ``_checked_entries`` gives. The asymmetry is
    the largest modulus of m_ij - conj(m_ji) over i <= j as libm hypot
    (np.hypot) gives it, and the trace has the bits of ``complex(np.trace(arr))``.
    """
    asymmetry = max([abs(entries[p] - entries[q].conjugate()) for p, q in _MIRRORED[len(arr)]])
    return _HALF * (arr + arr.conj().T), asymmetry, _TRACES[len(arr)](entries)


def hermitian_spectrum(a) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted descending.

    Solves the Hermitian part with ``eigvalsh``. Raises as ``as_matrix``
    does, then NonHermitianError for inputs whose asymmetry exceeds
    HERMITICITY_TOL.
    """
    hermitian, asymmetry, _ = _hermitian_part(*_checked_entries(a))
    if asymmetry > HERMITICITY_TOL:
        raise NonHermitianError(asymmetry)
    return np.linalg.eigvalsh(hermitian)[::-1]


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, and not a bool: a count, a seed or an index."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def modulus(z: complex) -> float:
    """|z| as libm hypot of its parts, the value np.hypot gives; inf where it overflows."""
    try:
        return abs(z)
    except OverflowError:  # a finite z whose modulus exceeds the largest double
        return float("inf")


def _nan_unless_finite(a, b, c, d):
    """0.0 when all four parts, real or complex Python numbers, are finite, else NaN."""
    return 0.0 if isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d) else math.nan


# Check tables: each invariant is written once and runs exactly on one row's
# Python numbers, or as a bound on columns of many rows.
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
# between Python numbers and columns: moduli, the maximum of three values,
# and 0.0 or NaN for four parts that are all finite or not. ON_NUMBERS, which
# ``require`` alone uses, takes moduli as abs() of a Python complex, libm
# hypot, and Python's max.
#
# Every quantity must be nondecreasing in each modulus it uses (a modulus
# enters directly, through -(q - h) or through m * m of m >= 0), and
# rounding is monotone. Then ON_BOUNDS, whose moduli are never below libm
# hypot's, gives quantities at least the exact ones (NaN counting as
# failing): a row that passes on its bounds passes exactly, so
# ``require_columns`` hands ``require`` only the rows that fail an entry
# there. The finite entry is the one bound not built from moduli: ON_BOUNDS
# takes the real part of (a + b + c + d) * 0.0, 0.0 or -0.0 for finite parts.
# A NaN or Inf part makes the sum non-finite and the product NaN, so the bound
# fails wherever the exact entry does; finite parts whose sum overflows give
# NaN as well, which only sends the row to ``require``.
ON_NUMBERS = SimpleNamespace(modulus=modulus, maximum=max, nan_unless_finite=_nan_unless_finite)
# numpy's complex absolute, a few ulps from hypot and cheaper; the margin is about 256 ulps, and
# the 2**-1000 covers subnormal moduli. A relative margin keeps the bound tight: |re| + |im|
# would fail POSITIVE on every pure state.
ON_BOUNDS = SimpleNamespace(
    modulus=lambda z: np.abs(z) * (1.0 + 2.0**-45) + 2.0**-1000,
    maximum=lambda p, q, r: np.maximum(np.maximum(p, q), r),
    nan_unless_finite=lambda a, b, c, d: ((a + b + c + d) * 0.0).real,
)

FINITE = (0.0, _NOT_FINITE.format)
BOUNDED = (MAX_ENTRY, f"entry {{!r}} exceeds the magnitude bound 2**400 = {MAX_ENTRY:.3e}".format)
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
    """The runner on one row, and the one exact evaluation: ValueError with the message of its first failing entry.

    Each check is a (table, parts) pair, ``parts`` the row's Python numbers;
    the tables run in order.
    """
    for table, parts in checks:
        for quantity, (bound, message), values in table(ON_NUMBERS, parts):
            if not quantity <= bound:
                raise ValueError(message(*values))


def require_columns(*checks) -> None:
    """The runner on N rows: ValueError for the lowest failing row, with the message ``require`` raises on it.

    Each check is a (table, columns) pair, ``columns`` the table's parts as
    N-long columns: a tuple of 1-d arrays or a (k, N) array, which iterate
    alike. From two rows on, the tables first run on ON_BOUNDS: a batch
    whose every entry passes there passes, and otherwise ``require`` runs on
    each row that failed an entry, lowest first, until one fails exactly.
    A batch of 0 or 1 rows goes to ``require`` directly.
    """
    candidates = range(len(checks[0][1][0]))
    if len(candidates) > 1:
        with np.errstate(all="ignore"):  # a failing row may give inf or nan in later entries: harmless
            passed = np.array([
                quantity <= bound for table, columns in checks for quantity, (bound, _), _ in table(ON_BOUNDS, columns)
            ])
        if passed.all():
            return
        candidates = np.flatnonzero(~passed.all(axis=0)).tolist()
    for i in candidates:
        require(*[(table, [column.item(i) for column in columns]) for table, columns in checks])


def require_statistical_operator(op) -> None:
    """Raise ValueError naming the first invariant of a statistical operator that fails.

    The invariants are Hermiticity (HERMITICITY_TOL), unit trace (TRACE_TOL)
    and positivity (smallest eigenvalue at least -EIGENVALUE_TOL). A 2x2
    operator is checked by ``qubit_operator_table``, which uses the closed
    form for its smallest eigenvalue; larger ones use the eigensolver. An
    operator with a NaN/Inf entry or an entry above MAX_ENTRY raises first,
    as in ``as_matrix``.
    """
    arr, entries = _checked_entries(op)
    if len(arr) == 2:
        require((qubit_operator_table, entries))
        return
    hermitian, asymmetry, trace = _hermitian_part(arr, entries)
    require((_operator_table, (asymmetry, trace, np.linalg.eigvalsh(hermitian).item(0))))


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

    One pass over ``op`` (``_hermitian_part``) gives its Hermitian part,
    asymmetry and trace; the spectra are rows 0 and 1 of one ``eigvalsh``
    call on the stacked Hermitian parts. They are bitwise ``eigvalsh`` of
    the Hermitian part of ``op`` and
    ``hermitian_spectrum(partial_transpose(op))[::-1]``, because the
    Hermitian part of the transpose is a permutation of that of ``op``.
    Raises as ``partial_transpose(op)``, then ``require_statistical_operator(op)``
    would; then ``hermitian_spectrum`` of the transpose cannot raise.
    """
    hermitian, asymmetry, trace = _hermitian_part(*_checked_entries(op, 4))
    spectra = np.linalg.eigvalsh(hermitian.ravel()[_WITH_PARTIAL_TRANSPOSE])
    require((_operator_table, (asymmetry, trace, spectra.item(0))))
    return spectra


def spectral_norm(a) -> float:
    """Largest eigenvalue magnitude of a Hermitian matrix."""
    values = hermitian_spectrum(a)
    return float(np.max(np.abs(values)))
