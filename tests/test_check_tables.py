"""The check tables on one row's Python numbers and on columns give the same verdicts and messages.

Every table in the package runs through both runners: ``require`` on the
row's Python numbers, and ``require_columns`` with the row at position k
among valid rows. They must agree on whether the row fails and, if it does,
on the message string, for extreme parts (±1e±300, subnormals, -0.0, NaN,
±Inf) and for parts one ulp either side of each bound. The magnitude check
where operators and tensors enter, ``require_bounded``, is tested here on
the same parts.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ensemble_teleport import CoefficientVector, coefficient_rows, linalg
from ensemble_teleport.fidelity import _vector_form_table
from ensemble_teleport.linalg import (
    ANNIHILATION_TOL,
    BOUNDED,
    EIGENVALUE_TOL,
    EQ_TOL,
    HERMITICITY_TOL,
    MAX_ENTRY,
    TRACE_TOL,
    require,
    require_bounded,
    require_columns,
)


# name -> (table, kind of each part: "r" real, "c" complex, a row that passes)
TABLES = {
    "coefficients": (linalg.coefficient_table, "rccr", (0.5, 0.1 + 0.2j, 0.1 - 0.2j, 0.5)),
    "bloch length": (linalg.bloch_table, "rrr", (0.1, -0.2, 0.3)),
    "renormalization": (linalg.renormalization_table, "cccc", (0.25, 0.1j, -0.1j, 0.75)),
    "renormalizable trace": (linalg.renormalizable_trace_table, "c", (0.5 + 0j,)),
    "qubit operator": (linalg.qubit_operator_table, "cccc", (0.5 + 0j, 0.1 + 0.2j, 0.1 - 0.2j, 0.5 + 0j)),
    "real overlap": (linalg.real_overlap_table, "c", (0.7 + 0j,)),
    "two-sided trace": (linalg.two_sided_trace_table, "c", (0.25 + 0j,)),
    "vector-form value": (_vector_form_table, "c", (0.5 + 0j,)),
    # asymmetry, trace and smallest eigenvalue of an n x n operator
    "operator": (
        lambda x, parts: linalg._operator_table(x, (parts[0].real, parts[1], parts[2].real)),
        "rcr",
        (0.0, 1.0 + 0j, 0.25),
    ),
}


DBL_MAX = 1.7976931348623157e308


def _around(value):
    """``value`` and its neighbours one ulp either side."""
    return [value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf)]


# Quantities that land on a bound when a part takes one of these values and
# the others are 0 or 1: |Im| and Re of a trace, nonnegativity, the
# coefficient and qubit traces, 2|Im a|, eigenvalues, |c12|^2 against c11*c22
# at c11 = 0.5, |r|^2 on one axis, and the modulus of an entry.
_BOUNDARIES = [
    EQ_TOL, -EQ_TOL, ANNIHILATION_TOL, TRACE_TOL, HERMITICITY_TOL, HERMITICITY_TOL / 2,
    EIGENVALUE_TOL, -EIGENVALUE_TOL, 1.0 + EQ_TOL, 1.0 - EQ_TOL, 1.0 + TRACE_TOL, 1.0 - TRACE_TOL,
    1.0 + EIGENVALUE_TOL, math.sqrt(0.25 + EQ_TOL), math.sqrt(1.0 + EQ_TOL), 0.5, 1.0, 0.0, MAX_ENTRY,
]
EXTREMES = [
    -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1.7e308, math.nan, math.inf, -math.inf,
]
SPECIAL = EXTREMES + [v for b in _BOUNDARIES for v in _around(b)]

reals = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
complexes = st.builds(complex, reals, reals)


@st.composite
def rows(draw):
    """A table, one row of its parts, and where that row sits among valid rows."""
    name = draw(st.sampled_from(sorted(TABLES)))
    _, kinds, _ = TABLES[name]
    parts = tuple(draw(reals if kind == "r" else complexes) for kind in kinds)
    n = draw(st.integers(min_value=2, max_value=5))
    return name, parts, draw(st.integers(min_value=0, max_value=n - 1)), n


def outcome(run, *args):
    """None if the runner passes, else the message of the ValueError it raises."""
    try:
        run(*args)
    except ValueError as exc:
        return str(exc)
    return None


def assert_runners_agree(name, parts, k, n):
    table, kinds, valid = TABLES[name]
    parts = tuple(complex(part) if kind == "c" else part for part, kind in zip(parts, kinds))
    stack = np.array([valid] * n, dtype=complex if "c" in kinds else float)
    stack[k] = parts
    one = outcome(require, (table, parts))
    assert outcome(require_columns, (table, stack.T)) == one
    assert outcome(require_columns, (table, stack[k : k + 1].T)) == one
    return one


class TestRunnersAgree:
    @given(rows())
    @example(("coefficients", (0.5, 0.6184795634692178 + 0j, 0.6184795634692178 + 0j, 0.5), 1, 3))
    @example(("two-sided trace", (complex(math.nan, math.nan),), 0, 2))
    @example(("coefficients", (0.5, complex(1.7e308, 1.7e308), complex(1.7e308, -1.7e308), 0.5), 2, 4))
    def test_same_verdict_and_message(self, case):
        assert_runners_agree(*case)

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_valid_rows_pass(self, name):
        assert assert_runners_agree(name, TABLES[name][2], 1, 3) is None

    @pytest.mark.parametrize("name", sorted(TABLES))
    @pytest.mark.parametrize("value", SPECIAL)
    def test_each_special_value_in_each_part(self, name, value):
        _, kinds, valid = TABLES[name]
        for i, kind in enumerate(kinds):
            for v in (value, complex(0.0, value), complex(value, value)) if kind == "c" else (value,):
                parts = list(valid)
                parts[i] = v
                assert_runners_agree(name, tuple(parts), i % 3, 3)


    def test_seeded_moduli_agree_to_the_last_digit(self):
        # The positivity message prints |c12|^2 with repr, so a modulus one ulp off would show.
        rng = np.random.default_rng(2024)
        for c11, phase in rng.uniform(0.0, 1.0, (300, 2)).tolist():
            c12 = complex(1.5 * np.sqrt(c11 * (1.0 - c11)) * np.exp(2j * np.pi * phase))
            assert "positivity" in assert_runners_agree("coefficients", (c11, c12, c12.conjugate(), 1.0 - c11), 1, 3)


BOUND_CASES = {
    # name -> (table, parts just inside, message or None, parts just outside, message)
    "nan two-sided total": (
        "two-sided trace", (0.25 + 0j,), None, (complex(math.nan, 0.0),),
        "two-sided update annihilated the ensemble: total trace (nan+0j)",
    ),
    "annihilation bound": (
        "renormalizable trace", (complex(math.nextafter(ANNIHILATION_TOL, 1.0), 0.0),), None,
        (complex(ANNIHILATION_TOL, 0.0),), "preparation annihilated the ensemble: trace 1.000e-09 <= 1e-09",
    ),
    "imaginary trace bound": (
        "renormalizable trace", (complex(0.5, EQ_TOL),), None,
        (complex(0.5, math.nextafter(EQ_TOL, 1.0)),), "cannot renormalize: trace has imaginary part 1.000e-12",
    ),
    "eigenvalue bound": (
        "operator", (0.0, 1.0 + 0j, -EIGENVALUE_TOL), None,
        (0.0, 1.0 + 0j, math.nextafter(-EIGENVALUE_TOL, -1.0)),
        "not a statistical operator: negative eigenvalue -1.000e-10",
    ),
    "qubit asymmetry bound": (
        "qubit operator", (complex(0.5, HERMITICITY_TOL / 2), 0j, 0j, complex(0.5, -HERMITICITY_TOL / 2)), None,
        (complex(0.5, math.nextafter(HERMITICITY_TOL / 2, 1.0)), 0j, 0j, complex(0.5, -HERMITICITY_TOL / 2)),
        "not a statistical operator: not Hermitian (asymmetry 1.000e-10)",
    ),
    # c11 = -EQ_TOL passes nonnegativity; then c11*c22 + EQ_TOL < 0 fails positivity.
    "coefficient nonnegativity bound": (
        "coefficients", (-EQ_TOL, 0j, 0j, 1.0 + EQ_TOL),
        "positivity constraint violated: |c12|^2 = 0.0 exceeds c11*c22 = -1.000000000001e-12",
        (math.nextafter(-EQ_TOL, -1.0), 0j, 0j, 1.0 + EQ_TOL),
        "nonnegativity constraint violated: c11 = -1.0000000000000002e-12, c22 = 1.000000000001",
    ),
    # |c12|^2 against c11*c22 + EQ_TOL at c11 = c22 = 0.5: |c12| = 0.500000000001 squares to
    # the bound exactly, and the next double up squares past it.
    "coefficient positivity bound": (
        "coefficients", (0.5, 0.500000000001, 0.500000000001, 0.5), None,
        (0.5, 0.5000000000010001, 0.5000000000010001, 0.5),
        "positivity constraint violated: |c12|^2 = 0.2500000000010001 exceeds c11*c22 = 0.25",
    ),
    "coefficient hermiticity bound": (
        "coefficients", (0.5, 0j, complex(EQ_TOL, 0.0), 0.5), None,
        (0.5, 0j, complex(math.nextafter(EQ_TOL, 1.0), 0.0), 0.5),
        "hermiticity constraint violated: c21 = (1.0000000000000002e-12+0j) is not conj(c12) = -0j",
    ),
}


class TestBounds:
    @pytest.mark.parametrize("case", sorted(BOUND_CASES))
    def test_one_ulp_either_side(self, case):
        name, inside, inside_message, outside, outside_message = BOUND_CASES[case]
        assert assert_runners_agree(name, inside, 0, 2) == inside_message
        assert assert_runners_agree(name, outside, 1, 2) == outside_message

    def test_a_pure_state_passes(self):
        # |c12|^2 = c11*c22 exactly: the positivity bound admits it only because it adds EQ_TOL.
        assert assert_runners_agree("coefficients", (0.5, 0.5, 0.5, 0.5), 0, 2) is None

    def test_unit_trace_bound_is_one_part_in_a_billion(self):
        # literal traces, so the bound cannot move with TRACE_TOL as the one-ulp cases do
        assert outcome(linalg.require_statistical_operator, [[0.5000000009, 0], [0, 0.5]]) is None
        assert outcome(linalg.require_statistical_operator, [[0.5000000011, 0], [0, 0.5]]) == (
            "not a statistical operator: not unit-trace (trace 1.0000000011+0j)"
        )


def bounded_outcome(z):
    """What require_bounded gives on a valid 2x2 operator with ``z`` in place of one entry, written out apart from it."""
    if not cmath.isfinite(z):
        expected = "matrix contains NaN or Inf entries"
    elif math.hypot(z.real, z.imag) > MAX_ENTRY:
        expected = f"entry {z!r} exceeds the magnitude bound 2**400 = 2.582e+120"
    else:
        expected = None
    return outcome(require_bounded, [0.5 + 0j, z, 0.25 + 0j, 0.5 + 0j]), expected


class TestMagnitudeBound:
    """``require_bounded`` names a NaN or Inf entry first, then the first entry above MAX_ENTRY."""

    @given(complexes)
    @example(complex(DBL_MAX, 0.0))
    @example(complex(-DBL_MAX, DBL_MAX))
    @example(complex(math.inf, 0.0))
    @example(complex(MAX_ENTRY, 0.0))
    @example(complex(0.0, -math.nextafter(MAX_ENTRY, math.inf)))
    @example(complex(MAX_ENTRY / math.sqrt(2.0), MAX_ENTRY / math.sqrt(2.0)))
    def test_each_entry(self, z):
        got, expected = bounded_outcome(z)
        assert got == expected

    def test_one_ulp_either_side(self):
        above = math.nextafter(MAX_ENTRY, math.inf)
        assert MAX_ENTRY == 2.0**400 and BOUNDED[0] == MAX_ENTRY
        assert outcome(require_bounded, [complex(MAX_ENTRY, 0.0)] * 64) is None
        assert outcome(require_bounded, [-MAX_ENTRY, 0.0, complex(0.0, above)]) == BOUNDED[1](complex(0.0, above))
        assert outcome(require_bounded, [DBL_MAX, DBL_MAX * 1j]) == "entry 1.7976931348623157e+308 exceeds the magnitude bound 2**400 = 2.582e+120"

    def test_nan_or_inf_is_named_before_a_large_entry(self):
        assert outcome(require_bounded, [complex(DBL_MAX, DBL_MAX), math.nan]) == "matrix contains NaN or Inf entries"
        assert outcome(require_bounded, [1e300, -math.inf], "preparation tensor contains NaN or Inf") == (
            "preparation tensor contains NaN or Inf"
        )


class TestPositivityDigits:
    """|c12|^2 is m * m on both paths; the constructor used to square with pow and differ in the last digit."""

    C12 = 0.6184795634692178  # found by a seeded search over real c12 in [0.6, 0.9] at c11 = 0.5
    MESSAGE = "positivity constraint violated: |c12|^2 = 0.38251697042907423 exceeds c11*c22 = 0.25"

    def test_constructor(self):
        with pytest.raises(ValueError) as info:
            CoefficientVector.from_components(0.5, self.C12)
        assert str(info.value) == self.MESSAGE

    def test_rows(self):
        c12 = np.array([0.1, self.C12, 0.2], dtype=complex)
        with pytest.raises(ValueError) as info:
            coefficient_rows(np.full(3, 0.5), c12, c12.conj(), np.full(3, 0.5))
        assert str(info.value) == self.MESSAGE

    def test_pow_and_multiply_differ_here(self):
        assert self.C12 ** 2 != self.C12 * self.C12
