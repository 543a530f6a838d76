"""The one-pass statistical-operator checks against the formulation they replaced.

``oracle_*`` below are the earlier checks: ``as_matrix`` with its own
NaN/Inf pass, a Hermitian part that takes the asymmetry as the largest
np.hypot of the whole gap, the stacked ``eigvalsh`` and
``complex(arr.trace())``. Ahead of them stands the magnitude bound, written
out on np.hypot of every entry; behind it no sum overflows, so the earlier
branches for overflowed Hermitian parts and NaN spectra are gone here too.
``_pair_spectra``, ``require_statistical_operator`` and
``hermitian_spectrum`` must return the same spectrum bytes, or raise the
same exception type with the same message and the same
``NonHermitianError.asymmetry`` bits, on generated 2x2, 4x4 and 8x8
operators of every kind in ``KINDS``.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_teleport import NonHermitianError, hermitian_spectrum, ppt_entangled, require_statistical_operator
from ensemble_teleport.linalg import (
    BOUNDED,
    HERMITICITY_TOL,
    MAX_ENTRY,
    SUPPORTED_DIMS,
    TRACE_TOL,
    _TRACES,
    _checked_entries,
    _hermitian_part,
    _operator_table,
    _pair_spectra,
    qubit_operator_table,
    require,
)
from conftest import random_state

DBL_MAX = np.finfo(float).max


def oracle_as_matrix(m, n=None):
    arr = np.asarray(m, dtype=complex)
    if n is not None and arr.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} operator, got shape {arr.shape}")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] not in SUPPORTED_DIMS:
        raise ValueError(f"matrix dimension {arr.shape[0]} unsupported; must be one of {SUPPORTED_DIMS}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains NaN or Inf entries")
    with np.errstate(over="ignore"):
        above = np.flatnonzero(np.hypot(arr.real, arr.imag) > MAX_ENTRY)
    if len(above):
        raise ValueError(BOUNDED[1](arr.ravel()[above[0]].item()))
    return arr


def oracle_hermitian_part(arr):
    adjoint = arr.conj().T
    gap = arr - adjoint
    return 0.5 * (arr + adjoint), float(np.hypot(gap.real, gap.imag).max())


def oracle_eigenvalues(hermitian):
    spectra = np.linalg.eigvalsh(hermitian)
    return spectra, spectra.item(0)


def oracle_trace(arr):
    return complex(arr.trace())


def oracle_pair_spectra(op):
    arr = oracle_as_matrix(op, 4)
    hermitian, asymmetry = oracle_hermitian_part(arr)
    transposed = hermitian.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    spectra, smallest = oracle_eigenvalues(np.stack([hermitian, transposed]))
    require((_operator_table, (asymmetry, oracle_trace(arr), smallest)))
    return spectra


def oracle_require_statistical_operator(op):
    arr = oracle_as_matrix(op)
    if arr.shape[0] == 2:
        require((qubit_operator_table, arr.ravel().tolist()))
        return
    hermitian, asymmetry = oracle_hermitian_part(arr)
    _, smallest = oracle_eigenvalues(hermitian)
    require((_operator_table, (asymmetry, oracle_trace(arr), smallest)))


def oracle_hermitian_spectrum(a):
    hermitian, asymmetry = oracle_hermitian_part(oracle_as_matrix(a))
    if asymmetry > HERMITICITY_TOL:
        raise NonHermitianError(asymmetry)
    spectrum, _ = oracle_eigenvalues(hermitian)
    return spectrum[::-1]


PAIRS = [
    (_pair_spectra, oracle_pair_spectra),
    (require_statistical_operator, oracle_require_statistical_operator),
    (hermitian_spectrum, oracle_hermitian_spectrum),
]


def outcome(check, op):
    """What ``check(op)`` gives: its result's bytes, or the exception's type, message and asymmetry bits."""
    try:
        result = check(op)
    except ValueError as exc:
        asymmetry = np.float64(exc.asymmetry).tobytes() if isinstance(exc, NonHermitianError) else None
        return type(exc), str(exc), asymmetry
    return None if result is None else (result.dtype, result.shape, result.tobytes())


def near_asymmetry_bound(rng, n, past):
    """A state with one diagonal or off-diagonal gap a few ulps inside or past HERMITICITY_TOL, exactly."""
    rho = random_state(rng, n)
    gap = HERMITICITY_TOL * (1.0 + (1 if past else -1) * float(rng.integers(1, 4)) * 2.0**-52)
    if rng.integers(2):
        k = int(rng.integers(n))
        rho[k, k] = complex(rho[k, k].real, 0.5 * gap)
    else:  # on a zeroed pair, since adding the gap to an entry rounds it
        i, j = rng.choice(n, 2, replace=False).tolist()
        rho[i, j], rho[j, i] = gap * complex(*rng.permutation([float(rng.choice([-1.0, 1.0])), 0.0])), 0.0
    return rho


def near_trace_bound(rng, n):
    """A state whose trace is 1 +- TRACE_TOL, give or take a few ulps of the tolerance."""
    rho = random_state(rng, n)
    target = 1.0 + float(rng.choice([-1.0, 1.0])) * TRACE_TOL * (1.0 + float(rng.integers(-3, 4)) * 2.0**-40)
    rho[0, 0] += target - np.trace(rho).real
    return rho


TINY = [5e-324, -5e-324, 0.0, -0.0, 2.2250738585072014e-308, -1e-310, 1e-320]


def with_tiny_entries(rng, n):
    """A state, or a diagonal 1/n, with some parts replaced by subnormals and signed zeros, kept Hermitian or not."""
    rho = random_state(rng, n) if rng.integers(2) else np.diag(np.full(n, 1.0 / n)).astype(complex)
    for _ in range(int(rng.integers(1, 2 * n))):
        i, j = rng.integers(n, size=2).tolist()
        rho[i, j] = complex(*rng.choice(TINY, 2))
        if rng.integers(2):
            rho[j, i] = rho[i, j].conjugate()
    if rng.integers(2):
        rho[np.diag_indices(n)] = -0.0
    return rho


HUGE = [1e308, -1e308, 1.7e308, -1.7e308, DBL_MAX, -DBL_MAX, 9e307, 0.25]


def with_huge_entries(rng, n, huge=HUGE):
    """Entries of +-1e308 and the like, which would overflow traces, gaps and Hermitian parts: the bound names them."""
    op = np.diag(np.full(n, 1.0 / n)).astype(complex)
    for _ in range(int(rng.integers(1, 2 * n))):
        i, j = rng.integers(n, size=2).tolist()
        op[i, j] = complex(rng.choice(huge), rng.choice(huge + [0.0] * 4))
        if rng.integers(2):
            op[j, i] = op[i, j].conjugate()
    if rng.integers(2):
        op[np.diag_indices(n)] = rng.choice(huge, n)
    return op


# parts at and just below the bound, and some whose complex modulus exceeds it
AT_BOUND = [MAX_ENTRY, -MAX_ENTRY, MAX_ENTRY * (1 - 2.0**-52), MAX_ENTRY / 2, -MAX_ENTRY / 3, 1e120, 0.25]


def with_entries_at_the_bound(rng, n):
    """``with_huge_entries`` on parts of modulus up to MAX_ENTRY, where every check is compared with the oracle."""
    return with_huge_entries(rng, n, AT_BOUND)


def with_non_finite_entry(rng, n):
    rho = random_state(rng, n)
    i, j = rng.integers(n, size=2).tolist()
    bad = float(rng.choice([math.nan, math.inf, -math.inf]))
    rho[i, j] = complex(bad, rho[i, j].imag) if rng.integers(2) else complex(rho[i, j].real, bad)
    return rho


WRONG_SHAPES = [(3, 3), (4,), (2, 4), (16, 16), (1, 1), (0, 0), (2, 2, 2), (4, 4, 1), ()]


def of_wrong_shape(rng, n):
    shape = WRONG_SHAPES[int(rng.integers(len(WRONG_SHAPES)))]
    return rng.normal(size=shape) + 0j


KINDS = {
    "state": random_state,
    "asymmetry inside": lambda rng, n: near_asymmetry_bound(rng, n, past=False),
    "asymmetry past": lambda rng, n: near_asymmetry_bound(rng, n, past=True),
    "trace at bound": near_trace_bound,
    "subnormal": with_tiny_entries,
    "overflowing": with_huge_entries,
    "at the bound": with_entries_at_the_bound,
    "non-finite": with_non_finite_entry,
    "wrong shape": of_wrong_shape,
}


@st.composite
def operators(draw):
    """One operator of a kind and size, built from a seed, so a failing example shrinks fast."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    n = draw(st.sampled_from(SUPPORTED_DIMS))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return KINDS[kind](np.random.default_rng(seed), n)


def assert_matches_oracle(op):
    for check, oracle in PAIRS:
        assert outcome(check, op) == outcome(oracle, op), (check.__name__, op)


class TestAgainstOracle:
    @settings(max_examples=600)
    @given(operators())
    def test_same_spectra_and_messages(self, op):
        assert_matches_oracle(op)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n", SUPPORTED_DIMS)
    def test_each_kind_and_size_on_seeded_draws(self, kind, n):
        rng = np.random.default_rng(sorted(KINDS).index(kind) * 10 + n)
        for _ in range(40):
            assert_matches_oracle(KINDS[kind](rng, n))

    def test_each_kind_reaches_its_verdict(self):
        # the kinds land on the sides of the bounds they are named for
        def verdicts(kind):
            rng = np.random.default_rng(7)
            found = (outcome(require_statistical_operator, KINDS[kind](rng, 4)) for _ in range(60))
            return {None if result is None else result[1].split(" (")[0] for result in found}

        not_hermitian = "not a statistical operator: not Hermitian"
        not_unit_trace = "not a statistical operator: not unit-trace"
        assert not_hermitian in verdicts("asymmetry past")
        assert not_hermitian not in verdicts("asymmetry inside")
        assert {None, not_unit_trace} <= verdicts("trace at bound")
        assert verdicts("overflowing") == {"entry"}  # the magnitude bound's message
        assert {not_unit_trace, "entry"} <= verdicts("at the bound")
        assert verdicts("non-finite") == {"matrix contains NaN or Inf entries"}


class TestTrace:
    """The helper's trace has the bits of complex(np.trace(m)): numpy's pairwise order and its starting 0j."""

    @pytest.mark.parametrize("n", SUPPORTED_DIMS)
    def test_random_operators(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(2000):
            scale = 10.0 ** rng.integers(-5, 5, (n, n))
            m = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * scale
            expected = np.complex128(complex(np.trace(m))).tobytes()
            assert np.complex128(_TRACES[n](m.ravel().tolist())).tobytes() == expected
            assert np.complex128(_hermitian_part(*_checked_entries(m))[2]).tobytes() == expected

    @pytest.mark.parametrize("n", SUPPORTED_DIMS)
    def test_signed_zero_diagonals(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(200):
            m = np.diag(rng.choice([0.0, -0.0], n) + 1j * rng.choice([0.0, -0.0], n))
            assert np.complex128(_TRACES[n](m.ravel().tolist())).tobytes() == np.complex128(complex(np.trace(m))).tobytes()


class TestTraceOverflow:
    """A finite operator whose trace would overflow fails the magnitude bound, with no warning first.

    Its trace used to overflow to inf, which the unit-trace check named; at
    the bound the trace is finite and the unit-trace check names it.
    """

    @pytest.mark.parametrize(
        "check, op, message",
        [
            (ppt_entangled, np.diag([1e308, 1e308, -1e308, 0.0]), BOUNDED[1](1e308 + 0j)),
            (require_statistical_operator, np.diag([1e308, 1e308, -1e308, 0.0]), BOUNDED[1](1e308 + 0j)),
            (require_statistical_operator, np.diag([1e308, 1e308, -1e308, 0.0, 0.0, 0.0, 0.0, 0.0]), BOUNDED[1](1e308 + 0j)),
            (
                ppt_entangled,
                np.diag([MAX_ENTRY, MAX_ENTRY, -MAX_ENTRY, 0.0]),
                "not a statistical operator: not unit-trace (trace 2.58224987809e+120+0j)",
            ),
            (
                require_statistical_operator,
                np.diag([MAX_ENTRY, MAX_ENTRY, -MAX_ENTRY, 0.0, 0.0, 0.0, 0.0, 0.0]),
                "not a statistical operator: not unit-trace (trace 2.58224987809e+120+0j)",
            ),
        ],
    )
    def test_raises_the_bound_or_unit_trace_message(self, check, op, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                check(op)
        assert str(info.value) == message
