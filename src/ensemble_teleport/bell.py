"""Bell-type basis vectors, their projectors, Pauli matrices, and the PPT entanglement test."""

from __future__ import annotations

import numpy as np

from .linalg import EIGENVALUE_TOL, _pair_spectra, is_integer

BELL_INDICES = (1, 2, 3, 4)

# index -> (parity, sign): 1, 2 are the even pair, 3, 4 the odd pair
_BELL_LABELS = {1: ("even", "+"), 2: ("even", "-"), 3: ("odd", "+"), 4: ("odd", "-")}


def require_bell_index(index) -> int:
    """``index`` as a Python int, if it is a Python or numpy integer (not a bool) in 1..4."""
    if is_integer(index) and index in BELL_INDICES:
        return int(index)
    raise ValueError(f"Bell index must be an integer in {BELL_INDICES}, got {index!r}")


def matrix_unit(row: int, col: int) -> np.ndarray:
    """|row><col| on one two-level factor, indices Python or numpy integers (not bools) in {1, 2}."""
    if not (is_integer(row) and is_integer(col) and row in (1, 2) and col in (1, 2)):
        raise ValueError(f"matrix unit indices must be 1 or 2, got ({row}, {col})")
    e = np.zeros((2, 2), dtype=complex)
    e[row - 1, col - 1] = 1.0
    return e


def _bell_pattern(parity: str, sign: str) -> np.ndarray:
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    s = 1.0 if sign == "+" else -1.0
    v = np.zeros(4, dtype=complex)
    if parity == "even":
        v[0], v[3] = 1.0, s
    else:
        v[1], v[2] = 1.0, s
    return v


def bell_vector(parity: str, sign: str) -> np.ndarray:
    """Unit vector of the Bell-type basis on a pair of two-level factors.

    even: (|11> ± |22>) / sqrt(2), odd: (|12> ± |21>) / sqrt(2), in the
    product basis |11>, |12>, |21>, |22> with the second index fastest.
    """
    return _bell_pattern(parity, sign) / np.sqrt(2.0)


def bell_projector(index: int) -> np.ndarray:
    """4x4 projector onto the indexed Bell-type vector.

    The same matrix serves the shared pair (A, B) and the sender pair (C, A).
    """
    index = require_bell_index(index)
    # Outer product of the unnormalized (0, ±1) pattern halved, so the
    # entries are exactly ±1/2 rather than one ulp off through 1/sqrt(2).
    w = _bell_pattern(*_BELL_LABELS[index])
    return np.outer(w, w.conj()) / 2.0


# k -> the entries of pauli(k)
_PAULI = {1: ((0.0, 1.0), (1.0, 0.0)), 3: ((1.0, 0.0), (0.0, -1.0))}


def pauli(k: int) -> np.ndarray:
    """Pauli matrix: k=1 is the bit flip, k=3 the phase flip; ``k`` a Python or numpy integer, not a bool."""
    if is_integer(k) and k in _PAULI:
        return np.array(_PAULI[k], dtype=complex)
    raise ValueError(f"only pauli(1) and pauli(3) are defined here, got {k}")


def ppt_entangled(op) -> bool:
    """True iff a two-qubit statistical operator fails the partial-transpose test.

    For a pair of two-level factors the test is conclusive: the state is
    entangled exactly when the partial transpose on the second qubit has an
    eigenvalue below -EIGENVALUE_TOL. The input must be a 4x4 statistical
    operator (Hermitian, unit trace, positive semidefinite); violations raise
    with the offending invariant. The checks and the transpose's spectrum
    share one pass over the operator and one eigensolve (``_ppt_test``).
    """
    return _ppt_test(op)[1]


def _ppt_test(op) -> tuple[float, bool]:
    """The smallest eigenvalue of the partial transpose of ``op`` and the PPT verdict: one ``_pair_spectra`` call."""
    pt_min = _pair_spectra(op).item(1, 0)
    return pt_min, pt_min < -EIGENVALUE_TOL
