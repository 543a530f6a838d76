"""Teleportation fidelity: trace and vector formulations, the lazy-receiver bound, averages.

Two formulations coexist on purpose. The trace form Tr(rho_in * rho_out) is
the authoritative overlap; the vector form evaluates the same quantity
through bilinear (unconjugated) products of coefficient 4-vectors and agrees
with the trace form only for real coefficient vectors. FidelityReport
records both and flags divergence instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .linalg import AGREE_TOL, as_matrix, frozen, is_integer, positive_real_invariants, require, scalar_table
from .protocol import (
    CoefficientVector,
    _bilinear,
    bloch_coefficient_rows,
    fidelity_trace,
    receiver_states,
    resolve_preparation,
)


_ANNIHILATES = "transformation annihilates the input: trace component {!r}".format
_REAL_COMPONENT, _UNANNIHILATED_COMPONENT = positive_real_invariants(_ANNIHILATES, _ANNIHILATES)
_unannihilated_component = scalar_table(_REAL_COMPONENT, _UNANNIHILATED_COMPONENT)
_REAL_VALUE = (AGREE_TOL, lambda value: f"vector-form fidelity has imaginary part {value.imag:.3e}")
# the vector-form fidelity's check that it is real within AGREE_TOL (so never NaN)
_vector_form_table = scalar_table(_REAL_VALUE)


def fidelity_vector(c: CoefficientVector, t) -> float:
    """Vector-form fidelity c.c + c.(T/||Tc|| - 1).c with bilinear products.

    ||.|| is the trace reading of a coefficient 4-vector: the sum of its
    first and fourth components. Every product of two 4-vectors, T's rows
    with c included, is ``_bilinear`` on Python numbers, as the trace form's
    overlap is. Raises as ``as_matrix`` does on the map, then when the
    transformed vector has no positive real trace component (the
    transformation annihilates the input), as the two-sided update does.
    """
    tm = as_matrix(t, 4)
    cv = c.as_vector().tolist()
    rows = tm.tolist()
    norm = complex(*_bilinear(rows[0], cv)) + complex(*_bilinear(rows[3], cv))
    require((_unannihilated_component, (norm,)))
    contamination = [complex(*_bilinear(row, cv)) - v for row, v in zip((tm / norm.real).tolist(), cv)]
    value = complex(*_bilinear(cv, cv)) + complex(*_bilinear(cv, contamination))
    require((_vector_form_table, (value,)))
    return value.real


def _lazy(c11, c12, c21, c22):
    # Re(c12 c21) in the operation order of a Python complex product, so that
    # arrays give the scalars' bits (numpy's complex product may fuse it).
    return 2.0 * c11 * c22 - 2.0 * (c12.real * c21.real - c12.imag * c21.imag)


def lazy_fidelity(c: CoefficientVector) -> float:
    """Closed-form fidelity when the receiver skips the correction.

    This is the no-correction outcome of the antisymmetric-pair projection
    (Bell index 1): 2*c11*c22 - 2*c12*c21.
    """
    return float(_lazy(c.c11, c.c12, c.c21, c.c22))


def lazy_fidelities(coeffs) -> np.ndarray:
    """``lazy_fidelity`` of each row of an ``(N, 4)`` coefficient array, bit for bit."""
    c = np.asarray(coeffs, dtype=complex)
    return _lazy(c[:, 0].real, c[:, 1], c[:, 2], c[:, 3].real)


@dataclass(frozen=True)
class LazyFidelityMaximum:
    """Result of the constrained maximization of the lazy fidelity."""

    argmax: CoefficientVector
    value: float


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10) -> float:
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def maximize_lazy_fidelity(grid_resolution: int) -> LazyFidelityMaximum:
    """Maximize the lazy fidelity over the admissible coefficient set.

    The objective 2 c11 c22 - 2 |c12|^2 is phase-independent and falls
    with |c12|, so its maximum over the admissible set (c11 + c22 = 1,
    nonnegativity, |c12|^2 <= c11*c22) has c12 = 0: a scan of
    ``grid_resolution`` values of c11 with c12 = 0 finds the best grid
    point, then golden-section search refines c11.
    ``grid_resolution`` is a Python or numpy integer (not a bool), at least 10.
    """
    if not is_integer(grid_resolution):
        raise ValueError(f"grid_resolution must be an integer, got {grid_resolution!r}")
    resolution = int(grid_resolution)
    if resolution < 10:
        raise ValueError(f"grid resolution must be at least 10, got {grid_resolution}")

    grid = np.linspace(0.0, 1.0, resolution)
    best_c11 = float(grid[int(np.argmax(_lazy(grid, 0.0, 0.0, 1.0 - grid)))])  # the first maximum

    spacing = 1.0 / (resolution - 1)
    lo = max(0.0, best_c11 - spacing)
    hi = min(1.0, best_c11 + spacing)

    refined_c11 = _golden_section_max(lambda c11: _lazy(c11, 0.0, 0.0, 1.0 - c11), lo, hi)
    argmax = CoefficientVector.from_components(refined_c11, 0.0)
    return LazyFidelityMaximum(argmax=argmax, value=lazy_fidelity(argmax))


# Each sample's uniform coordinates as low + width * rng.random(): rng.uniform's doubles, bit for bit.
_PURE_LOW, _PURE_WIDTH = frozen([-1.0, 0.0]), frozen([2.0, 2.0 * np.pi])
_MIXED_LOW, _MIXED_WIDTH = frozen([-1.0, 0.0, 0.0]), frozen([2.0, 2.0 * np.pi, 1.0])


def _pure_bloch(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors (x, y, z) of n pure inputs, uniform on the sphere (Haar measure).

    Each sample takes z, then the azimuth, from the stream: the same doubles
    in the same order for one draw of n as for n draws of one.
    """
    z, phi = (_PURE_LOW + _PURE_WIDTH * rng.random((n, 2))).T
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return r * np.cos(phi), r * np.sin(phi), z


def _mixed_bloch(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors (x, y, z) of n inputs uniform in the ball.

    Each sample takes z, the azimuth, then the radius draw from the stream.
    """
    z, phi, u = (_MIXED_LOW + _MIXED_WIDTH * rng.random((n, 3))).T
    # float_power calls libm pow like Python's **; np.power rounds some cube roots differently.
    radius = np.float_power(u, 1.0 / 3.0)
    r = radius * np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return r * np.cos(phi), r * np.sin(phi), radius * z


def sample_pure_uniform(rng: np.random.Generator) -> CoefficientVector:
    """One pure input drawn uniformly from the Bloch sphere (Haar measure)."""
    x, y, z = _pure_bloch(rng, 1)
    return CoefficientVector.from_bloch(x[0], y[0], z[0])


def sample_mixed_uniform(rng: np.random.Generator) -> CoefficientVector:
    """One input drawn uniformly from the interior-and-boundary Bloch ball."""
    x, y, z = _mixed_bloch(rng, 1)
    return CoefficientVector.from_bloch(x[0], y[0], z[0])


# Sampler name -> draw of n Bloch vectors.
SAMPLERS: dict[str, Callable[[np.random.Generator, int], tuple]] = {
    "pure_uniform": _pure_bloch,
    "mixed_uniform": _mixed_bloch,
}


class AverageFidelity(NamedTuple):
    mean: float
    stderr: float


def average_fidelity(
    prep,
    bob_acts: bool,
    sampler: str = "pure_uniform",
    n: int = 1000,
    seed: int = 0,
) -> AverageFidelity:
    """Monte-Carlo mean of the trace-form fidelity over sampled inputs.

    Deterministic for a fixed (seed, n). ``prep`` is a Bell index or a
    PreparationTensor; with ``bob_acts`` the receiver correction for the
    identified preparation is applied before measuring the overlap. ``n``
    (at least 100) and ``seed`` (at least 0) are Python or numpy integers,
    not bools; any other value raises a ValueError that names it.
    """
    if not is_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    # the isinstance test keeps an unhashable sampler from reaching the dict lookup
    if not isinstance(sampler, str) or sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; expected one of {sorted(SAMPLERS)}")
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    session_map = resolve_preparation(prep).session_map(bob_acts)
    x, y, z = SAMPLERS[sampler](np.random.default_rng(seed), n)
    _, values = receiver_states(session_map, bloch_coefficient_rows(x, y, z))
    # values.mean() and values.std(ddof=1) without their Python wrappers: the same pairwise sums and divisions
    mean = np.add.reduce(values) / n
    d = values - mean
    d *= d
    stderr = float(np.sqrt(np.add.reduce(d) / (n - 1)) / np.sqrt(n))
    return AverageFidelity(mean=float(mean), stderr=stderr)


@dataclass(frozen=True)
class FidelityReport:
    """Both fidelity formulations side by side."""

    trace_form: float
    vector_form: float
    agree: bool
    note: str


def fidelity_report(c: CoefficientVector, transformation, bob) -> FidelityReport:
    """Evaluate both formulations against one receiver state and transformation."""
    trace_form = fidelity_trace(c, bob)
    vector_form = fidelity_vector(c, transformation)
    diff = abs(trace_form - vector_form)
    agree = diff < AGREE_TOL
    note = (
        ""
        if agree
        else (
            f"forms differ by {diff:.3e}: the bilinear vector algebra matches the "
            "trace overlap only for real coefficient vectors"
        )
    )
    return FidelityReport(trace_form=trace_form, vector_form=vector_form, agree=agree, note=note)
