"""Teleportation pipeline for qubit ensembles held as statistical operators.

The sender (Alice) and receiver (Bob) share a pair of two-level ensembles
prepared in the antisymmetric Bell projector; the sender also holds the input
ensemble whose coefficients are to be transferred. Alice applies a
preparation on her pair (C, A), the receiver's two-level marginal is
extracted and renormalized, and Bob optionally applies a Pauli correction
keyed by classical communication.

Basis bookkeeping: the total space is ordered C ⊗ A ⊗ B with the last index
fastest; a 2x2 operator on B with entries m[i, j] has the coefficient
4-vector (m11, m12, m21, m22) in the matrix-unit basis.

Sessions run in coefficient space (``receiver_states``): a 4x4 map on an
``(N, 4)`` array of such vectors, then renormalization, one row per session.
The 8x8 path (``total_state``, ``alice_prepare``, ``bob_correct``) computes
the same state and is kept as the reference.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bell import BELL_INDICES, bell_projector, matrix_unit, pauli, require_bell_index
from .linalg import (
    EQ_TOL,
    ON_NUMBERS,
    _HALF,
    _TRACES,
    _checked_entries,
    bloch_table,
    coefficient_table,
    embed_sender_pair,
    frozen,
    qubit_operator_table,
    real_overlap_table,
    renormalizable_trace_table,
    renormalization_table,
    require,
    require_bounded,
    require_columns,
    stacked_kron,
    trace_out_sender_pair,
)


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients (c11, c12, c21, c22) of a two-level statistical operator.

    Invariants enforced at construction: c11 + c22 = 1, both diagonal
    entries nonnegative, c21 the conjugate of c12, and |c12|^2 <= c11*c22
    (equality exactly for pure inputs).
    """

    c11: float
    c12: complex
    c21: complex
    c22: float

    def __post_init__(self):
        _require_real(c11=self.c11, c22=self.c22)
        self._settle(float(self.c11), complex(self.c12), complex(self.c21), float(self.c22))

    def _settle(self, c11: float, c12: complex, c21: complex, c22: float) -> "CoefficientVector":
        """Store the converted parts and run the constructor's check: the constructor after its real-part test."""
        # as __init__ sets them: __dict__.update would give each vector its own key table (about 130 bytes)
        object.__setattr__(self, "c11", c11)
        object.__setattr__(self, "c12", c12)
        object.__setattr__(self, "c21", c21)
        object.__setattr__(self, "c22", c22)
        require((coefficient_table, (c11, c12, c21, c22)))
        return self

    @classmethod
    def from_components(cls, c11: float, c12: complex = 0.0) -> "CoefficientVector":
        """Build from the free parameters, deriving c22 = 1 - c11 and c21 = conj(c12)."""
        _require_real(c11=c11)
        return cls._from_real(float(c11), complex(c12))

    @classmethod
    def _from_real(cls, c11: float, c12: complex) -> "CoefficientVector":
        """``from_components`` on a float c11, so each public call tests its real parts once."""
        return object.__new__(cls)._settle(c11, c12, c12.conjugate(), 1.0 - c11)

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> "CoefficientVector":
        """Coefficients of (I + x*sigma1 + y*sigma2 + z*sigma3) / 2 for |r| <= 1."""
        _require_real(x=x, y=y, z=z)
        x, y, z = float(x), float(y), float(z)
        require((bloch_table, (x, y, z)))
        return cls._from_real((1.0 + z) / 2.0, (x - 1j * y) / 2.0)

    def as_vector(self) -> np.ndarray:
        """The coefficient 4-vector (c11, c12, c21, c22), as a new array."""
        return np.array([self.c11, self.c12, self.c21, self.c22], dtype=complex)

    @cached_property
    def row(self) -> np.ndarray:
        """``as_vector()[None]``, the ``(1, 4)`` row the kernels take: read-only, built on first use and kept."""
        # its own array, not a view of as_vector(): the row lives as long as the vector
        return frozen([[self.c11, self.c12, self.c21, self.c22]], dtype=complex)

    def matrix(self) -> np.ndarray:
        """The 2x2 statistical operator carrying these coefficients."""
        return np.array([[self.c11, self.c12], [self.c21, self.c22]], dtype=complex)

    def is_pure(self, tol: float = EQ_TOL) -> bool:
        # |c12|^2 and c11*c22 as the positivity entry computes them
        mag2, product = coefficient_table(ON_NUMBERS, (self.c11, self.c12, self.c21, self.c22))[-1][-1]
        return abs(mag2 - product) <= tol


def _require_real(**parts) -> None:
    """TypeError for a complex part, a Python or numpy one or an array of them, whose imaginary part float() would drop."""
    for name, part in parts.items():
        if not isinstance(part, (float, int)) and np.iscomplexobj(part):  # floats skip the 1 µs array test
            raise TypeError(f"{name} must be real, got a complex value")


def _require_equal_1d(names: str, *arrays: np.ndarray) -> None:
    shapes = [a.shape for a in arrays]
    if arrays[0].ndim != 1 or len(set(shapes)) != 1:
        raise ValueError(f"{names} must be 1-d arrays of equal length, got shapes {shapes}")


def coefficient_rows(c11, c12, c21, c22) -> np.ndarray:
    """Four 1-d coefficient arrays of length N as ``(N, 4)`` rows (c11, c12, c21, c22), checked.

    ``coefficient_table`` on every row, as the CoefficientVector constructor
    runs it on one: the lowest failing row raises the constructor's message.
    """
    _require_real(c11=c11, c22=c22)
    c11, c22 = np.asarray(c11, dtype=float), np.asarray(c22, dtype=float)
    c12, c21 = np.asarray(c12, dtype=complex), np.asarray(c21, dtype=complex)
    _require_equal_1d("c11, c12, c21, c22", c11, c12, c21, c22)
    rows = np.empty((len(c11), 4), dtype=complex)
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = c11, c12, c21, c22
    require_columns((coefficient_table, (c11, c12, c21, c22)))
    return rows


def bloch_coefficient_rows(x, y, z) -> np.ndarray:
    """``CoefficientVector.from_bloch`` on arrays: its length check and its one check, ``bloch_table``, then its rows.

    fl(x^2 + y^2 + z^2) <= 1 + EQ_TOL implies every ``coefficient_table`` invariant, so that pass is not run:
    finite parts, |c11 + c22 - 1| <= 2**-52, -c11 and -c22 <= 2.6e-13, c21 - conj(c12) = 0, positivity <= -7e-13.
    """
    _require_real(x=x, y=y, z=z)
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    _require_equal_1d("x, y, z", x, y, z)
    require_columns((bloch_table, (x, y, z)))
    c11, c12 = (1.0 + z) / 2.0, (x - 1j * y) / 2.0
    rows = np.empty((len(c11), 4), dtype=complex)
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = c11, c12, c12.conj(), 1.0 - c11
    return rows


@dataclass(frozen=True, eq=False)
class PreparationTensor:
    """Sixteen weights u[k, l, m, n] defining the sender operation sum_klmn u C_kl ⊗ A_mn.

    ``normalized`` records whether the diagonal weights u_kkmm are a
    probability-like set (real, nonnegative, summing to one), which holds
    for every projective preparation. The automatic preparation violates it
    (the sum is two) and must be constructed with the flag explicitly False.

    The tensor is the one place that knows what a session with it does: its
    classification against the known preparations and its session maps. The
    weights are read-only, so each derived value is computed on first use and kept.
    """

    u: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        arr = frozen(self.u, dtype=complex)
        if arr.shape != (2, 2, 2, 2):
            raise ValueError(f"preparation tensor must have shape (2, 2, 2, 2), got {arr.shape}")
        require_bounded(arr.ravel().tolist(), "preparation tensor contains NaN or Inf")
        object.__setattr__(self, "u", arr)
        if self.normalized:
            diag = np.array([arr[k, k, m, m] for k in (0, 1) for m in (0, 1)])
            if np.max(np.abs(diag.imag)) > EQ_TOL or np.min(diag.real) < -EQ_TOL:
                raise ValueError(
                    "normalized preparation requires real nonnegative diagonal weights u_kkmm"
                )
            total = self.diagonal_weight()
            if abs(total - 1.0) > EQ_TOL:
                raise ValueError(
                    f"normalized preparation requires sum of u_kkmm = 1, got {total!r}"
                )

    def matrix(self) -> np.ndarray:
        """The 4x4 operator on the sender pair (C major, A minor index)."""
        return np.asarray(self.u).transpose(0, 2, 1, 3).reshape(4, 4).copy()

    def diagonal_weight(self) -> float:
        """Sum of u_kkmm: one for projective preparations, two for the automatic one."""
        return float(np.real(sum(self.u[k, k, m, m] for k in (0, 1) for m in (0, 1))))

    @cached_property
    def coefficient_map(self) -> np.ndarray:
        """``transformation_matrix(self)``."""
        return transformation_matrix(self)

    @cached_property
    def sender_operator(self) -> np.ndarray:
        """The preparation embedded on C ⊗ A ⊗ B: ``embed_sender_pair(self.matrix())``, read-only."""
        return frozen(embed_sender_pair(self.matrix()))

    @cached_property
    def _known_index(self) -> int | None:
        # Position in _KNOWN_WEIGHTS of the weights within EQ_TOL of these, or None.
        matches = (np.abs(_KNOWN_WEIGHTS - self.u) <= EQ_TOL).reshape(5, 16).all(axis=1)
        return int(np.argmax(matches)) if matches.any() else None

    @cached_property
    def bell_index(self) -> int | None:
        """Index of the Bell preparation these weights match within EQ_TOL, else None."""
        k = self._known_index
        return BELL_INDICES[k] if k is not None and k < 4 else None

    @cached_property
    def automatic(self) -> bool:
        """Whether these weights match the automatic preparation's within EQ_TOL."""
        return self._known_index == 4

    @cached_property
    def _exact_ratio(self) -> float | None:
        # diagonal_weight() for weights byte-equal to a known preparation's, else None. Each
        # known operator P has P @ P = w P with w = 1 or 2, so its two-sided update is w times
        # its one-sided one, exactly. Weights that only match within EQ_TOL round differently.
        k = self._known_index
        if k is None or self.u.tobytes() != _KNOWN_WEIGHTS[k].tobytes():
            return None
        return self.diagonal_weight()

    @cached_property
    def _corrected_map(self) -> np.ndarray:
        # A Pauli conjugation U . U† acts on row-major coefficient 4-vectors as kron(U, conj(U)).
        return frozen(_CORRECTION_MAPS[self.bell_index] @ self.coefficient_map)

    def session_map(self, bob_acts: bool) -> np.ndarray:
        """Read-only 4x4 coefficient map of a session; the correction applies only when ``bob_acts``.

        Bell preparations are corrected by their index and the automatic one
        needs no correction; any other tensor runs only without one.
        """
        if not bob_acts or self.automatic:
            return self.coefficient_map
        if self.bell_index is None:
            raise ValueError("no correction rule for this preparation; run with bob_acts=False")
        return self._corrected_map


def preparation_from_bell(index: int) -> PreparationTensor:
    """Weight tensor whose operator form is the indexed Bell projector on the sender pair."""
    p = bell_projector(index)
    u = p.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    return PreparationTensor(u=u, normalized=True)


def automatic_preparation() -> PreparationTensor:
    """The preparation whose coefficient map is the identity.

    Equal to twice the index-4 Bell projector on the sender pair, so it is
    self-adjoint but squares to twice itself and is not a projection. After
    renormalization the receiver's subensemble carries the input
    coefficients with no correction and no transmitted index.
    """
    u = np.zeros((2, 2, 2, 2), dtype=complex)
    u[0, 0, 1, 1] = 1.0
    u[1, 0, 0, 1] = -1.0
    u[0, 1, 1, 0] = -1.0
    u[1, 1, 0, 0] = 1.0
    return PreparationTensor(u=u, normalized=False)


# The known preparations, built once: the Bell tensors by index, and the
# weights of all five (Bell 1..4, then automatic) stacked for classification.
_BELL_TENSORS = {index: preparation_from_bell(index) for index in BELL_INDICES}
_KNOWN_WEIGHTS = frozen(np.stack([t.u for t in (*_BELL_TENSORS.values(), automatic_preparation())]))


def resolve_preparation(prep) -> PreparationTensor:
    """A Bell index as the constant Bell tensor; a PreparationTensor as itself.

    A Bell index is a Python or numpy integer, not a bool. The tensor
    classifies itself (``bell_index``, ``automatic``) on first use.
    """
    if isinstance(prep, PreparationTensor):
        return prep
    try:
        index = require_bell_index(prep)
    except ValueError as exc:
        raise ValueError(f"preparation must be a PreparationTensor or an integer Bell index: {exc}") from None
    return _BELL_TENSORS[index]


# The pair (A, B) is shared in the fourth Bell projector.
_SHARED_PAIR = frozen(bell_projector(4))


def total_states(coeffs: np.ndarray) -> np.ndarray:
    """``total_state`` of each ``(N, 4)`` coefficient row: the ``(N, 8, 8)`` stack."""
    return stacked_kron(coeffs.reshape(-1, 2, 2), _SHARED_PAIR)


def total_state(c: CoefficientVector) -> np.ndarray:
    """Input ensemble joined with the shared pair: 8x8 operator on C ⊗ A ⊗ B."""
    return total_states(c.row)[0]


@dataclass(frozen=True, eq=False)
class TotalStateDecomposition:
    """Twice the total state split into sender-pair projector terms plus residuals.

    ``projector_terms[i-1]`` is the term carried by the i-th Bell projector
    on the sender pair, whose receiver factor is ``receiver_factors[i-1]``
    (the Pauli-conjugated input). ``residual_terms[(i, j)]`` are the
    leftover pieces proportional to the sender-input matrix units.
    """

    projector_terms: tuple[np.ndarray, ...]
    receiver_factors: tuple[np.ndarray, ...]
    residual_terms: dict[tuple[int, int], np.ndarray]

    def reconstruction(self) -> np.ndarray:
        """Sum of all terms; equals twice the total state."""
        out = sum(self.projector_terms) + sum(self.residual_terms.values())
        return np.asarray(out)


def decompose_total_state(c: CoefficientVector) -> TotalStateDecomposition:
    """Split twice the total state along the sender-pair Bell projectors."""
    rho = c.matrix()
    # U† rho U for each correction word U, in Pauli factors: forming U† rho U
    # in one product, or multiplying by the identity, moves signed zeros
    s1, s3 = _CORRECTIONS[2], _CORRECTIONS[3]
    receiver_factors = (s3 @ s1 @ rho @ s1 @ s3, s1 @ rho @ s1, s3 @ rho @ s3, rho)
    projector_terms = tuple(
        np.kron(bell_projector(i), factor)
        for i, factor in zip(BELL_INDICES, receiver_factors)
    )

    c11, c12, c21, c22 = c.c11, c.c12, c.c21, c.c22
    e = matrix_unit

    def ab(ar, ac, br, bc):
        return np.kron(e(ar, ac), e(br, bc))

    residual_ab = {
        (1, 1): -(c22 * ab(1, 1, 1, 1) + c11 * ab(1, 2, 2, 1)
                  + c11 * ab(2, 1, 1, 2) + c22 * ab(2, 2, 2, 2)),
        (1, 2): (c12 * ab(1, 1, 2, 2) + c21 * ab(1, 2, 1, 2)
                 + c21 * ab(2, 1, 2, 1) + c12 * ab(2, 2, 1, 1)),
        (2, 1): (c21 * ab(1, 1, 2, 2) + c12 * ab(1, 2, 1, 2)
                 + c12 * ab(2, 1, 2, 1) + c21 * ab(2, 2, 1, 1)),
        (2, 2): -(c11 * ab(1, 1, 1, 1) + c22 * ab(1, 2, 2, 1)
                  + c22 * ab(2, 1, 1, 2) + c11 * ab(2, 2, 2, 2)),
    }
    residual_terms = {
        (i, j): np.kron(e(i, j), block) for (i, j), block in residual_ab.items()
    }
    return TotalStateDecomposition(projector_terms, receiver_factors, residual_terms)


def alice_prepare(u: PreparationTensor, c: CoefficientVector) -> np.ndarray:
    """Receiver-side raw operator after the sender's preparation.

    Embeds the preparation on the sender pair, applies it to the total
    state, and traces the sender pair out. The 2x2 result generally has
    trace below one and must be renormalized before use.
    """
    return trace_out_sender_pair(u.sender_operator @ total_state(c))


def renormalize(m) -> np.ndarray:
    """Divide by the trace, restoring a unit-trace operator.

    Raises as ``as_matrix`` does, then when the trace is not (numerically)
    a positive real, which signals a preparation orthogonal to the state it
    was applied to.
    """
    arr, entries = _checked_entries(m)
    t = _TRACES[len(arr)](entries)
    require((renormalizable_trace_table, (t,)))
    return arr / t.real


def _bilinear(x, y) -> tuple:
    """Sum of x[k] * y[k] over four complex entries, unconjugated, as its (real, imaginary) parts.

    Real IEEE products, sums and differences on ``.real`` and ``.imag``, added
    pairwise as ((0 + 1) + (2 + 3)): each operation rounds once, with no BLAS
    call and no fused complex product. The entries may be Python numbers or a
    batch's float64 columns, which get the same bits row for row on every CPU.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3) = x, y
    return (((a0.real * b0.real - a0.imag * b0.imag) + (a1.real * b1.real - a1.imag * b1.imag))
            + ((a2.real * b2.real - a2.imag * b2.imag) + (a3.real * b3.real - a3.imag * b3.imag)),
            ((a0.real * b0.imag + a0.imag * b0.real) + (a1.real * b1.imag + a1.imag * b1.real))
            + ((a2.real * b2.imag + a2.imag * b2.real) + (a3.real * b3.imag + a3.imag * b3.real)))


def fidelity_trace(c: CoefficientVector, bob) -> float:
    """Overlap Tr(rho_in * rho_bob) with the input transported to the receiver basis.

    The trace is c11 b11 + c12 b21 + c21 b12 + c22 b22 as ``_bilinear`` sums
    it, the kernel's overlap to the bit. ``bob`` must be a 2x2 statistical
    operator, so no unphysical operator yields a value, and the overlap must
    be real: a non-negligible imaginary part signals a non-Hermitian pipeline
    bug. The checks are ``receiver_states``' own, in its order, so both raise
    the same message.
    """
    b11, b12, b21, b22 = entries = _checked_entries(bob, 2)[1]
    re, im = _bilinear(c.matrix().ravel().tolist(), (b11, b21, b12, b22))
    require((qubit_operator_table, entries), (real_overlap_table, (complex(re, im),)))
    return re


_EPSILON = frozen([[0.0, 1.0], [-1.0, 0.0]])


def transformation_matrix(u: PreparationTensor) -> np.ndarray:
    """Coefficient map of a preparation, as a read-only 4x4 array.

    Column order follows the input vector (c11, c12, c21, c22); row r gives
    the receiver coefficient of the r-th matrix unit. The entry pattern is

        row 1:  +u[q, p, 2, 2]    row 2:  -u[q, p, 1, 2]
        row 3:  -u[q, p, 2, 1]    row 4:  +u[q, p, 1, 1]

    (1-based weight indices) where column (p, q) multiplies c_pq. As one
    index expression, T[ab, pq] = sum_mn eps[a, m] eps[b, n] u[q, p, n, m]
    with eps the antisymmetric symbol on a two-level factor.
    """
    return frozen(np.einsum("am,bn,qpnm->abpq", _EPSILON, _EPSILON, u.u).reshape(4, 4))


# The Pauli word that undoes each Bell preparation's imprint, by Bell index, and its coefficient map.
_CORRECTIONS = {
    index: frozen(word)
    for index, word in zip(BELL_INDICES, (pauli(1) @ pauli(3), pauli(1), pauli(3), np.eye(2, dtype=complex)))
}
_CORRECTION_MAPS = {index: frozen(np.kron(un, un.conj())) for index, un in _CORRECTIONS.items()}


def correction_unitary(index: int) -> np.ndarray:
    """Pauli word undoing the conjugation imprinted by the indexed Bell preparation, as a new array."""
    return _CORRECTIONS[require_bell_index(index)].copy()


def bob_correct(index: int, m) -> np.ndarray:
    """Apply the receiver correction for the indexed Bell preparation.

    Input must be a 2x2 statistical operator; the correction is a
    Pauli conjugation and exactly inverts the preparation's imprint.
    """
    arr, entries = _checked_entries(m, 2)
    require((qubit_operator_table, entries))
    un = _CORRECTIONS[require_bell_index(index)]
    return un @ arr @ un.conj().T


@lru_cache(maxsize=32)
def _permutation_plan(entries: bytes) -> tuple[tuple, np.ndarray] | None:
    """``(columns, scales)`` when the 4x4 complex map t with C-order bytes ``entries`` is a scaled permutation.

    That is, a permutation matrix times finite real scales: row r of
    ``t @ v`` is then ``scales[r] * v[columns[r]]``. Every known session map
    is one, with scales of 1/2 or 1. A map with a second nonzero entry in a
    row or column, a nonzero imaginary part or a NaN/Inf entry gives None.
    Every column is taken, so a NaN/Inf coefficient reaches the mapped
    vector on both paths. The cache is keyed on the map's bytes, so a map
    sent again costs one ``tobytes``; every caller gets the same plan, so it
    is immutable: a tuple of columns and scales over immutable bytes
    (``frozen``).
    """
    rows = np.frombuffer(entries, complex).reshape(4, 4).tolist()
    nonzero = [[(j, z) for j, z in enumerate(row) if z] for row in rows]
    if any(len(row) != 1 for row in nonzero):
        return None
    columns, scales = zip(*(row[0] for row in nonzero))
    if sorted(columns) != [0, 1, 2, 3] or any(z.imag or not math.isfinite(z.real) for z in scales):
        return None
    return columns, frozen([z.real for z in scales])


@np.errstate(all="ignore")  # as a decorator, errstate costs about half what a with block does
def _mapped_states(t: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``receiver_states``' arithmetic, unchecked: the raw operators, the states and the overlaps.

    Half the mapped vector is alice_prepare's raw operator, so the trace
    checks see the same numbers as on the reference path. The stacked
    matrix-vector products repeat one session's arithmetic per row, and the
    overlaps are ``_bilinear`` on whole columns, so each row is bitwise what
    a batch of one, and ``_session_row``, give. A row that fails one check
    may give inf or nan in later ones, which is harmless: only its first
    failing check is reported. A complex map that is a scaled permutation
    (``_permutation_plan``) gathers its columns instead, at every batch
    size: each entry is one product, rounded once on both paths, and
    ``+= 0.0`` turns a -0.0 into the +0.0 that the matrix-vector sums, which
    start from +0, give. A product that overflows is inf here and may be NaN
    there; either fails the finite check. A map of any other dtype keeps
    the product.
    """
    permutation = _permutation_plan(t.tobytes()) if t.dtype == complex else None
    if permutation is None:
        raw = (t @ c[:, :, None]).reshape(-1, 2, 2)
    else:
        columns, scales = permutation
        raw = (c.take(columns, axis=1) * scales).reshape(-1, 2, 2)
        raw += 0.0
    raw *= _HALF
    trace = raw[:, 0, 0] + raw[:, 1, 1]
    states = raw / trace.real[:, None, None]
    overlap = np.empty(len(c), dtype=complex)
    overlap.real, overlap.imag = _bilinear(c.T, (states[:, 0, 0], states[:, 1, 0], states[:, 0, 1], states[:, 1, 1]))
    return raw, states, overlap


_STATE_PARTS = struct.Struct("8d")  # a 2x2 complex state as the real and imaginary parts of its entries, in C order


def _row_state(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The renormalized state of the one row of ``c`` under ``t``, read-only over immutable bytes.

    The map's zgemv by ``ndarray.dot`` (``@`` without the matmul ufunc's
    dispatch), numpy's halving by ``_HALF`` (its complex product may be fused,
    and on a part of -5e-324 give -0.0 where Python's gives +0.0) and
    ``renormalize``'s checks on the Python numbers that ``require`` reads.
    The division is numpy's complex one by ``trace + 0j``, whose ratio is
    +0.0 and scale 1 / trace for the positive trace that the checks ensure;
    Python's ``complex / float`` differs from it in the last bit. Callers run
    it under ``np.errstate(all="ignore")``: like ``@``, the dot raises under
    ``np.errstate(under="raise")`` on a subnormal part.
    """
    raw = t.dot(c[0])
    raw *= _HALF
    raw = raw.tolist()
    require((renormalization_table, raw))
    m11, m12, m21, m22 = raw
    scale = 1.0 / (m11.real + m22.real)
    return np.ndarray((2, 2), complex, _STATE_PARTS.pack(
        (m11.real + m11.imag * 0.0) * scale, (m11.imag - m11.real * 0.0) * scale,
        (m12.real + m12.imag * 0.0) * scale, (m12.imag - m12.real * 0.0) * scale,
        (m21.real + m21.imag * 0.0) * scale, (m21.imag - m21.real * 0.0) * scale,
        (m22.real + m22.imag * 0.0) * scale, (m22.imag - m22.real * 0.0) * scale,
    ))


@np.errstate(all="ignore")
def _session_row(t: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """``receiver_states`` on the one row of ``c``: the state, read-only over immutable bytes, and the fidelity.

    ``_mapped_states``' arithmetic and checks on one row, to the same bits:
    ``_row_state``, then the overlap's ``_bilinear`` on Python numbers, and
    the remaining checks.
    """
    state = _row_state(t, c)
    s11, s12, s21, s22 = entries = state.ravel().tolist()
    re, im = _bilinear(c[0].tolist(), (s11, s21, s12, s22))
    require((qubit_operator_table, entries), (real_overlap_table, (complex(re, im),)))
    return state, re


def _coefficient_batch(coeffs) -> np.ndarray:
    """``coeffs`` as a complex array, which must have the shape ``(N, 4)`` of coefficient rows."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[1] != 4:
        raise ValueError(f"expected an (N, 4) array of coefficient rows, got shape {c.shape}")
    return c


def receiver_states(t, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Receiver states and trace fidelities of a batch of sessions sharing one map.

    ``t`` is a 4x4 session map (``PreparationTensor.session_map``); ``coeffs``
    is an ``(N, 4)`` array of checked input coefficient rows, as
    ``coefficient_rows`` gives them. Returns the new ``(N, 2, 2)`` states, row i
    equal to renormalize(alice_prepare(...)) for input i followed by the
    map's correction, and the ``(N,)`` overlaps Tr(rho_in rho_bob). Every row
    passes renormalize's trace checks, then fidelity_trace's checks (a
    statistical operator, a real overlap); otherwise ValueError names the
    lowest failing row's first failing invariant, with the message those
    one-operator functions give (``require`` on that row). That holds for rows from
    ``coefficient_rows`` or ``CoefficientVector`` and maps of a
    ``PreparationTensor``, which sit far below MAX_ENTRY; on rows with
    entries past it the kernel gives the check tables' verdicts, not the
    bound message of those functions. Every row gets the same bits alone,
    inside a batch of any size and in ``run_session``, which runs its one
    row as Python numbers (``_session_row``). A known map gathers the
    columns of every batch (``_permutation_plan``), to the bits of the
    per-row product that other maps take. The overlap is one bilinear sum
    (``_bilinear``), on Python numbers for one row and on whole columns for a
    batch, with the same bits on every CPU.
    """
    t = np.asarray(t)
    if t.shape != (4, 4):
        raise ValueError(f"expected a 4x4 session map, got shape {t.shape}")
    raw, states, overlap = _mapped_states(t, _coefficient_batch(coeffs))
    require_columns(
        (renormalization_table, raw.reshape(-1, 4).T),
        (qubit_operator_table, states.reshape(-1, 4).T),
        (real_overlap_table, (overlap,)),
    )
    return states, overlap.real


_MESSAGE_BITS = {"two_bits": 2, "one_bit_ping": 1, "pre_agreed": 0}


@dataclass(frozen=True)
class ClassicalMessage:
    """What the sender transmits: a preparation index, a bare ping, or nothing."""

    variant: str
    index: int | None = None

    def __post_init__(self):
        # the isinstance test keeps an unhashable variant from reaching the dict lookup
        if not isinstance(self.variant, str) or self.variant not in _MESSAGE_BITS:
            raise ValueError(
                f"message variant must be one of {tuple(_MESSAGE_BITS)}, got {self.variant!r}"
            )
        if self.variant == "two_bits":
            object.__setattr__(self, "index", require_bell_index(self.index))
        elif self.index is not None:
            raise ValueError(f"a {self.variant} message carries no index")

    @classmethod
    def two_bits(cls, index: int) -> "ClassicalMessage":
        return cls("two_bits", index)

    @classmethod
    def ping(cls) -> "ClassicalMessage":
        return cls("one_bit_ping")

    @classmethod
    def pre_agreed(cls) -> "ClassicalMessage":
        return cls("pre_agreed")

    @property
    def bits(self) -> int:
        return _MESSAGE_BITS[self.variant]


@dataclass(frozen=True, eq=False)
class SessionRecord:
    """Outcome of one protocol session; ``bob_state`` is a read-only copy of the state passed in."""

    bob_state: np.ndarray
    fidelity: float
    bits_sent: int

    def __post_init__(self):
        object.__setattr__(self, "bob_state", frozen(self.bob_state, dtype=complex))

    @classmethod
    def _owning(cls, state: np.ndarray, fidelity: float, bits_sent: int) -> "SessionRecord":
        """The record of ``state``, taken without a copy: a 2x2 array over immutable bytes, which ``_session_row`` gives.

        No array along its ``.base`` chain can be made writable, as for ``frozen``.
        """
        record = object.__new__(cls)
        record.__dict__.update(bob_state=state, fidelity=fidelity, bits_sent=bits_sent)
        return record


def run_session(
    c: CoefficientVector,
    prep,
    message: ClassicalMessage,
    bob_acts: bool,
) -> SessionRecord:
    """Execute one full session: prepare, renormalize, optionally correct.

    ``prep`` is a Bell index or a PreparationTensor. A two-bit message must
    carry the index of the Bell preparation actually applied. When
    ``bob_acts`` is true the receiver applies the correction for the
    preparation he can identify (from the message or by prior agreement);
    corrections exist only for the Bell family, while the automatic
    preparation needs none.
    """
    u = resolve_preparation(prep)
    if message.variant == "two_bits":
        if message.index != u.bell_index:
            raise ValueError(
                f"two-bit message index {message.index} does not match the preparation "
                f"(Bell index {u.bell_index})"
            )
    # a tensor's map and c.row have the kernel's shapes, so no shape check is needed
    return SessionRecord._owning(*_session_row(u.session_map(bob_acts), c.row), message.bits)
