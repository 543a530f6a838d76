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

Sessions run in coefficient space (``receiver_state``): a 4x4 map on that
vector, then renormalization. The 8x8 path (``total_state``,
``alice_prepare``, ``bob_correct``) computes the same state and is kept as
the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import BELL_INDICES, bell_projector, matrix_unit, pauli
from .linalg import (
    ANNIHILATION_TOL,
    EQ_TOL,
    LAYOUT_CAB,
    TRACE_TOL,
    as_matrix,
    embed,
    matmul,
    partial_trace,
    require_statistical_operator,
    tensor,
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
        object.__setattr__(self, "c11", float(self.c11))
        object.__setattr__(self, "c12", complex(self.c12))
        object.__setattr__(self, "c21", complex(self.c21))
        object.__setattr__(self, "c22", float(self.c22))
        if not np.isfinite(
            np.array([self.c11, self.c12, self.c21, self.c22], dtype=complex)
        ).all():
            raise ValueError("coefficients contain NaN or Inf")
        if abs(self.c11 + self.c22 - 1.0) > EQ_TOL:
            raise ValueError(
                f"trace constraint violated: c11 + c22 = {self.c11 + self.c22!r}, expected 1"
            )
        if self.c11 < -EQ_TOL or self.c22 < -EQ_TOL:
            raise ValueError(
                f"nonnegativity constraint violated: c11 = {self.c11!r}, c22 = {self.c22!r}"
            )
        if abs(self.c21 - np.conj(self.c12)) > EQ_TOL:
            raise ValueError(
                f"hermiticity constraint violated: c21 = {self.c21!r} is not conj(c12) = {np.conj(self.c12)!r}"
            )
        if abs(self.c12) ** 2 > self.c11 * self.c22 + EQ_TOL:
            raise ValueError(
                f"positivity constraint violated: |c12|^2 = {abs(self.c12) ** 2!r} "
                f"exceeds c11*c22 = {self.c11 * self.c22!r}"
            )

    @classmethod
    def from_components(cls, c11: float, c12: complex = 0.0) -> "CoefficientVector":
        """Build from the free parameters, deriving c22 = 1 - c11 and c21 = conj(c12)."""
        c12 = complex(c12)
        return cls(float(c11), c12, c12.conjugate(), 1.0 - float(c11))

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> "CoefficientVector":
        """Coefficients of (I + x*sigma1 + y*sigma2 + z*sigma3) / 2 for |r| <= 1."""
        r2 = x * x + y * y + z * z
        if r2 > 1.0 + EQ_TOL:
            raise ValueError(f"Bloch vector length {np.sqrt(r2)} exceeds 1")
        return cls.from_components((1.0 + z) / 2.0, (x - 1j * y) / 2.0)

    def as_vector(self) -> np.ndarray:
        """The coefficient 4-vector (c11, c12, c21, c22)."""
        return np.array([self.c11, self.c12, self.c21, self.c22], dtype=complex)

    def matrix(self) -> np.ndarray:
        """The 2x2 statistical operator carrying these coefficients."""
        return np.array([[self.c11, self.c12], [self.c21, self.c22]], dtype=complex)

    def is_pure(self, tol: float = EQ_TOL) -> bool:
        return abs(abs(self.c12) ** 2 - self.c11 * self.c22) <= tol


@dataclass(frozen=True, eq=False)
class PreparationTensor:
    """Sixteen weights u[k, l, m, n] defining the sender operation sum_klmn u C_kl ⊗ A_mn.

    ``normalized`` records whether the diagonal weights u_kkmm are a
    probability-like set (real, nonnegative, summing to one), which holds
    for every projective preparation. The automatic preparation violates it
    (the sum is two) and must be constructed with the flag explicitly False.
    """

    u: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        arr = np.array(self.u, dtype=complex)
        if arr.shape != (2, 2, 2, 2):
            raise ValueError(f"preparation tensor must have shape (2, 2, 2, 2), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("preparation tensor contains NaN or Inf")
        arr.setflags(write=False)
        object.__setattr__(self, "u", arr)
        if self.normalized:
            diag = np.array([arr[k, k, m, m] for k in (0, 1) for m in (0, 1)])
            if np.max(np.abs(diag.imag)) > EQ_TOL or np.min(diag.real) < -EQ_TOL:
                raise ValueError(
                    "normalized preparation requires real nonnegative diagonal weights u_kkmm"
                )
            total = float(diag.real.sum())
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


def preparation_from_bell(index: int) -> PreparationTensor:
    """Weight tensor whose operator form is the indexed Bell projector on the sender pair."""
    p = bell_projector(index, subsystems=("C", "A"))
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
_KNOWN_WEIGHTS = np.stack([t.u for t in _BELL_TENSORS.values()] + [automatic_preparation().u])
_KNOWN_WEIGHTS.setflags(write=False)


@dataclass(frozen=True)
class ResolvedPreparation:
    """A preparation tensor classified against the known preparation family."""

    tensor: PreparationTensor
    bell_index: int | None
    automatic: bool

    def session_map(self, bob_acts: bool) -> TransformationMatrix:
        """Effective coefficient map of a session; the correction applies only when ``bob_acts``."""
        if bob_acts and self.bell_index is None and not self.automatic:
            raise ValueError("no correction rule for this preparation; run with bob_acts=False")
        return effective_transformation(self.tensor, self.bell_index if bob_acts else None)


def resolve_preparation(prep) -> ResolvedPreparation:
    """Accept a Bell index or a PreparationTensor and classify it.

    Classification keys the receiver correction: Bell preparations carry
    their index, the automatic preparation needs no correction, anything
    else is usable only without a correction step.
    """
    if isinstance(prep, PreparationTensor):
        matches = (np.abs(_KNOWN_WEIGHTS - prep.u) <= EQ_TOL).reshape(5, 16).all(axis=1)
        if matches[:4].any():
            return ResolvedPreparation(prep, BELL_INDICES[int(np.argmax(matches))], False)
        return ResolvedPreparation(prep, None, bool(matches[4]))
    index = int(prep)
    if index not in BELL_INDICES:
        raise ValueError(f"Bell index must be in {BELL_INDICES}, got {prep!r}")
    return ResolvedPreparation(_BELL_TENSORS[index], index, False)


def total_state(c: CoefficientVector) -> np.ndarray:
    """Input ensemble joined with the shared pair: 8x8 operator on C ⊗ A ⊗ B."""
    return tensor(c.matrix(), bell_projector(4))


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
    s1, s3 = pauli(1), pauli(3)
    receiver_factors = (
        s3 @ s1 @ rho @ s1 @ s3,
        s1 @ rho @ s1,
        s3 @ rho @ s3,
        rho,
    )
    projector_terms = tuple(
        np.kron(bell_projector(i, subsystems=("C", "A")), factor)
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
    p8 = embed(u.matrix(), ("C", "A"), LAYOUT_CAB)
    raw = matmul(p8, total_state(c))
    return partial_trace(raw, LAYOUT_CAB, {"C", "A"})


def renormalize(m) -> np.ndarray:
    """Divide by the trace, restoring a unit-trace operator.

    Raises when the trace is not (numerically) a positive real, which
    signals a preparation orthogonal to the state it was applied to.
    """
    arr = as_matrix(m)
    t = complex(np.trace(arr))
    if abs(t.imag) > EQ_TOL:
        raise ValueError(f"cannot renormalize: trace has imaginary part {t.imag:.3e}")
    if t.real <= ANNIHILATION_TOL:
        raise ValueError(
            f"preparation annihilated the ensemble: trace {t.real:.3e} <= {ANNIHILATION_TOL}"
        )
    return arr / t.real


def fidelity_trace(c: CoefficientVector, bob) -> float:
    """Overlap Tr(rho_in * rho_bob) with the input transported to the receiver basis.

    ``bob`` must have unit trace. A non-negligible imaginary part in the
    overlap signals a non-Hermitian pipeline bug and raises.
    """
    arr = as_matrix(bob)
    if arr.shape != (2, 2):
        raise ValueError(f"fidelity expects a 2x2 receiver state, got shape {arr.shape}")
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"receiver state must have unit trace, got {tr!r}")
    overlap = complex(np.trace(c.matrix() @ arr))
    if abs(overlap.imag) > EQ_TOL:
        raise ValueError(
            f"fidelity has non-negligible imaginary part {overlap.imag:.3e}; "
            "the pipeline produced a non-Hermitian state"
        )
    return float(overlap.real)


@dataclass(frozen=True, eq=False)
class TransformationMatrix:
    """4x4 map from input coefficients (c11, c12, c21, c22) to receiver coefficients."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=complex)
        if arr.shape != (4, 4):
            raise ValueError(f"transformation matrix must be 4x4, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("transformation matrix contains NaN or Inf")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


_EPSILON = np.array([[0.0, 1.0], [-1.0, 0.0]])


def transformation_matrix(u: PreparationTensor) -> TransformationMatrix:
    """Coefficient map of a preparation.

    Column order follows the input vector (c11, c12, c21, c22); row r gives
    the receiver coefficient of the r-th matrix unit. The entry pattern is

        row 1:  +u[q, p, 2, 2]    row 2:  -u[q, p, 1, 2]
        row 3:  -u[q, p, 2, 1]    row 4:  +u[q, p, 1, 1]

    (1-based weight indices) where column (p, q) multiplies c_pq. As one
    index expression, T[ab, pq] = sum_mn eps[a, m] eps[b, n] u[q, p, n, m]
    with eps the antisymmetric symbol on a two-level factor.
    """
    t = np.einsum("am,bn,qpnm->abpq", _EPSILON, _EPSILON, u.u)
    return TransformationMatrix(t.reshape(4, 4))


def coefficients_of(m) -> np.ndarray:
    """Row-major coefficient 4-vector (m11, m12, m21, m22) of a 2x2 operator."""
    arr = as_matrix(m)
    if arr.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {arr.shape}")
    return arr.reshape(4).copy()


def matrix_from_coefficients(v) -> np.ndarray:
    """Inverse of coefficients_of."""
    arr = np.asarray(v, dtype=complex)
    if arr.shape != (4,):
        raise ValueError(f"expected a coefficient 4-vector, got shape {arr.shape}")
    return arr.reshape(2, 2).copy()


def correction_unitary(index: int) -> np.ndarray:
    """Pauli word undoing the conjugation imprinted by the indexed Bell preparation."""
    if index not in BELL_INDICES:
        raise ValueError(f"Bell index must be in {BELL_INDICES}, got {index}")
    s1, s3 = pauli(1), pauli(3)
    if index == 1:
        return s1 @ s3
    if index == 2:
        return s1
    if index == 3:
        return s3
    return np.eye(2, dtype=complex)


def bob_correct(index: int, m) -> np.ndarray:
    """Apply the receiver correction for the indexed Bell preparation.

    Input must be a 2x2 statistical operator; the correction is a
    Pauli conjugation and exactly inverts the preparation's imprint.
    """
    arr = as_matrix(m)
    if arr.shape != (2, 2):
        raise ValueError(f"correction expects a 2x2 operator, got shape {arr.shape}")
    require_statistical_operator(arr)
    un = correction_unitary(index)
    return un @ arr @ un.conj().T


_CORRECTION_MAPS = {
    index: np.kron(correction_unitary(index), correction_unitary(index).conj())
    for index in BELL_INDICES
}


def effective_transformation(u: PreparationTensor, correction_index: int | None) -> TransformationMatrix:
    """Coefficient map of the whole session: preparation, then optional correction.

    A Pauli conjugation U . U† acts on row-major coefficient 4-vectors as
    kron(U, conj(U)).
    """
    t = transformation_matrix(u).matrix
    if correction_index is not None:
        t = _CORRECTION_MAPS[correction_index] @ t
    return TransformationMatrix(t)


def receiver_state(resolved: ResolvedPreparation, c: CoefficientVector, bob_acts: bool) -> np.ndarray:
    """The receiver's state after one session, computed on coefficient 4-vectors.

    Applies the session's effective map to the input coefficients and
    renormalizes: the same state as renormalize(alice_prepare(...)) followed
    by bob_correct when ``bob_acts``, without the 8x8 assembly. Raises when
    the result is not a statistical operator, naming the violated invariant.
    """
    t = resolved.session_map(bob_acts)
    # Half the mapped vector is alice_prepare's raw operator, so renormalize
    # applies its checks to the same trace as on the reference path.
    state = renormalize(0.5 * (t.matrix @ c.as_vector()).reshape(2, 2))
    require_statistical_operator(state)
    return state


_MESSAGE_VARIANTS = ("two_bits", "one_bit_ping", "pre_agreed")
_MESSAGE_BITS = {"two_bits": 2, "one_bit_ping": 1, "pre_agreed": 0}


@dataclass(frozen=True)
class ClassicalMessage:
    """What the sender transmits: a preparation index, a bare ping, or nothing."""

    variant: str
    index: int | None = None

    def __post_init__(self):
        if self.variant not in _MESSAGE_VARIANTS:
            raise ValueError(
                f"message variant must be one of {_MESSAGE_VARIANTS}, got {self.variant!r}"
            )
        if self.variant == "two_bits":
            if self.index not in BELL_INDICES:
                raise ValueError("a two-bit message must carry a Bell index in 1..4")
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
    """Outcome of one protocol session."""

    bob_state: np.ndarray
    fidelity: float
    bits_sent: int

    def __post_init__(self):
        arr = np.array(self.bob_state, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "bob_state", arr)


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
    resolved = resolve_preparation(prep)
    if message.variant == "two_bits":
        if resolved.bell_index is None or message.index != resolved.bell_index:
            raise ValueError(
                f"two-bit message index {message.index} does not match the preparation "
                f"(Bell index {resolved.bell_index})"
            )
    state = receiver_state(resolved, c, bob_acts)
    return SessionRecord(
        bob_state=state,
        fidelity=fidelity_trace(c, state),
        bits_sent=message.bits,
    )
