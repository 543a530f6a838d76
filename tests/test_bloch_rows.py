"""A Bloch batch is checked once, and ``from_bloch`` takes each part as a float.

``bloch_coefficient_rows`` runs ``bloch_table`` alone: once
fl(x^2 + y^2 + z^2) <= 1 + EQ_TOL, every ``coefficient_table`` invariant
holds on the rows it builds, with the margins in ``MARGINS``.
``TestMargins`` measures them on the rows closest to each bound (the shell
just inside the Bloch bound, special parts and the ties just below z = -1);
a tolerance change that breaks the implication fails there. ``TestRows``
checks that the rows are ``coefficient_rows``' bytes and that no other check
runs. ``TestFromBloch`` checks that 0-d arrays and numpy scalars give the
record of their floats, that a complex part, numpy's too, raises TypeError,
and that the one-vector errors are the batch's.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ensemble_teleport import CoefficientVector, bloch_coefficient_rows, coefficient_rows, linalg, protocol
from ensemble_teleport.fidelity import SAMPLERS
from ensemble_teleport.linalg import ON_NUMBERS, bloch_table, coefficient_table
from conftest import exact_quantities

BLOCH_BOUND = linalg._BLOCH_LENGTH[0]  # 1 + EQ_TOL
ULP = 2.0**-52

# The largest value each coefficient_table quantity reaches on rows that pass the Bloch check,
# in the table's order: finite, trace, -c11, -c22, Hermiticity, positivity. The trace is not
# always 1: where 1 - c11 falls halfway between two doubles, as for z = -1 - 2**-52 and
# c11 = -2**-53, c22 = fl(1 - c11) may round down by 2**-53, and so does the trace.
# |z| <= sqrt(1 + EQ_TOL) bounds -c11 and -c22 by about EQ_TOL/4, and |c12|^2 - c11*c22 is
# (r^2 - 1)/4 up to rounding, so the positivity quantity is about -3/4 EQ_TOL.
MARGINS = (0.0, ULP, 2.6e-13, 2.6e-13, 0.0, -7e-13)


def _passing(x, y, z):
    """The rows of (x, y, z) that pass the Bloch check, by ``bloch_table``'s own quantity."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    keep = exact_quantities(bloch_table, (x, y, z)).reshape(len(x)) <= BLOCH_BOUND
    return x[keep], y[keep], z[keep]


def _shell(n, seed):
    """n seeded vectors with r^2 in 1 + [0.9, 1] (BLOCH_BOUND - 1), those that pass the check."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(3, n))
    length = np.sqrt(1.0 + (BLOCH_BOUND - 1.0) * rng.uniform(0.9, 1.0, n))
    return _passing(*(direction / np.sqrt((direction * direction).sum(axis=0)) * length))


def _special():
    """Every triple of special parts that passes the check: signed zeros, subnormals, tiny, the unit and past it."""
    edge = math.sqrt(BLOCH_BOUND)
    below = [-1.0 - k * ULP for k in (1, 2, 3, 5)]  # k = 1 and 5 give the trace 1 - 2**-53
    parts = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e-160, 0.5, -0.5, 1.0, -1.0]
    parts += [edge, -edge, math.nextafter(edge, 0.0), 1.0 + ULP] + below
    return _passing(*np.array(list(itertools.product(parts, repeat=3))).T)


def _sampled():
    """Both samplers' draws, as ``average_fidelity`` and ``appendix-check`` take them."""
    draws = [SAMPLERS[name](np.random.default_rng(7), 500) for name in sorted(SAMPLERS)]
    return tuple(np.concatenate(parts) for parts in zip(*draws))


INPUTS = {"shell": _shell(20_000, 28), "special": _special(), "sampled": _sampled()}

_part = st.floats(min_value=-1.000001, max_value=1.000001, allow_subnormal=True)
_on_shell = st.tuples(_part, _part, _part, st.floats(0.9, 1.0)).filter(lambda v: max(map(abs, v[:3])) > 0.1).map(
    lambda v: tuple(np.array(v[:3]) * math.sqrt(1.0 + (BLOCH_BOUND - 1.0) * v[3]) / math.hypot(*v[:3]))
)
bloch_batches = st.lists(st.one_of(st.tuples(_part, _part, _part), _on_shell), min_size=1, max_size=20).map(
    lambda vectors: _passing(*np.array(vectors).reshape(-1, 3).T)
)


def _quantities(rows):
    return exact_quantities(coefficient_table, rows.T).reshape(len(rows), len(MARGINS)).T


def _assert_within_margins(x, y, z):
    for quantity, margin in zip(_quantities(bloch_coefficient_rows(x, y, z)), MARGINS):
        assert np.all(quantity <= margin), (margin, np.max(quantity))


def _as_coefficient_rows(x, y, z):
    c11, c12 = (1.0 + z) / 2.0, (x - 1j * y) / 2.0
    return coefficient_rows(c11, c12, c12.conj(), 1.0 - c11)


class TestMargins:
    def test_each_margin_is_inside_its_invariant(self):
        bounds = [bound for _, (bound, _), _ in coefficient_table(ON_NUMBERS, (0.5, 0j, 0j, 0.5))]
        assert all(margin < bound for margin, bound in zip(MARGINS[1:], bounds[1:]))
        assert MARGINS[0] == bounds[0] == 0.0

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_rows_stay_within_the_margins(self, name):
        _assert_within_margins(*INPUTS[name])

    def test_the_shell_and_the_special_parts_reach_the_margins(self):
        # the margins are close to what the rows reach, so a looser Bloch bound moves past them
        per_input = [_quantities(bloch_coefficient_rows(*xyz)) for xyz in INPUTS.values()]
        reached = [max(np.max(q) for q in quantities) for quantities in zip(*per_input)]
        assert reached[1] == ULP / 2
        assert min(reached[2], reached[3]) > 2.4e-13
        assert reached[5] > -7.6e-13

    @given(bloch_batches)
    def test_generated_rows_stay_within_the_margins(self, xyz):
        _assert_within_margins(*xyz)


class TestRows:
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_same_bytes_as_coefficient_rows(self, name):
        x, y, z = INPUTS[name]
        assert bloch_coefficient_rows(x, y, z).tobytes() == _as_coefficient_rows(x, y, z).tobytes()

    @given(bloch_batches)
    def test_generated_rows_have_the_same_bytes(self, xyz):
        assert bloch_coefficient_rows(*xyz).tobytes() == _as_coefficient_rows(*xyz).tobytes()

    def test_no_rows(self):
        rows = bloch_coefficient_rows([], [], [])
        assert rows.shape == (0, 4) and rows.dtype == complex

    def test_only_the_bloch_check_runs(self, monkeypatch):
        seen = []

        def recording(runner):
            def run(*checks):
                seen.append((runner.__name__, [table for table, _ in checks]))
                return runner(*checks)

            return run

        monkeypatch.setattr(protocol, "require_columns", recording(linalg.require_columns))
        x, y, z = INPUTS["sampled"]
        bloch_coefficient_rows(x, y, z)
        assert seen == [("require_columns", [bloch_table])]
        seen.clear()
        _as_coefficient_rows(x, y, z)
        assert seen == [("require_columns", [coefficient_table])]


FLOAT_ARGS = (0.1, -0.2, 0.3)


class TestFromBloch:
    """``from_bloch`` takes each part through float(), as ``bloch_coefficient_rows`` takes its arrays; a complex part raises TypeError."""

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize(
        "wrap",
        [np.array, np.float64, np.float32, lambda v: np.array(v, dtype=np.float32), np.longdouble],
        ids=["0-d array", "float64", "float32", "0-d float32 array", "longdouble"],
    )
    def test_numpy_part_gives_the_record_of_its_float(self, position, wrap):
        args = list(FLOAT_ARGS)
        args[position] = wrap(args[position])
        expected = CoefficientVector.from_bloch(*map(float, args))
        got = CoefficientVector.from_bloch(*args)
        assert got == expected
        assert got.as_vector().tobytes() == expected.as_vector().tobytes()
        assert got.as_vector().tobytes() == bloch_coefficient_rows(*([a] for a in args))[0].tobytes()

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("wrap", [np.int64, np.array, int], ids=["int64", "0-d int array", "int"])
    def test_integer_part_gives_the_record_of_its_float(self, position, wrap):
        args = [0.0, 0.0, 0.0]
        args[position] = wrap(1)
        assert CoefficientVector.from_bloch(*args) == CoefficientVector.from_bloch(*map(float, args))

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize(
        "value, error",
        [
            (10**400, OverflowError),
            (-(10**400), OverflowError),
            (0.5j, TypeError),
            (np.complex128(0.3 + 0.9j), TypeError),
            (np.complex128(0.3), TypeError),
            (np.complex64(0.3 + 0.9j), TypeError),
            (np.array(0.3 + 0.9j), TypeError),
        ],
        ids=["huge int", "huge negative int", "complex", "complex128", "complex128 real", "complex64", "0-d complex array"],
    )
    def test_error_is_the_batch_error(self, position, value, error):
        args = [0, 0, 0]
        args[position] = value
        with pytest.raises(error) as batch:
            bloch_coefficient_rows(*([a] for a in args))
        with pytest.raises(error) as one:
            CoefficientVector.from_bloch(*args)
        assert str(one.value) == str(batch.value)

    @pytest.mark.parametrize("position", range(3))
    def test_complex_column_is_refused(self, position):
        # numpy used to drop the imaginary part with a ComplexWarning: c12 was 0.15 for x = 0.3 + 0.9j
        args = [np.zeros(2), np.zeros(2), np.zeros(2)]
        args[position] = np.array([0.3 + 0.9j, 0.1])
        with pytest.raises(TypeError, match=f"^{'xyz'[position]} must be real, got a complex value$"):
            bloch_coefficient_rows(*args)

    @pytest.mark.parametrize("wrap", [np.array, np.float32], ids=["0-d array", "float32"])
    def test_long_vector_message_is_the_float_message(self, wrap):
        with pytest.raises(ValueError, match="^Bloch vector length") as expected:
            CoefficientVector.from_bloch(0.0, 0.0, 1.5)
        with pytest.raises(ValueError) as got:
            CoefficientVector.from_bloch(wrap(0.0), 0.0, wrap(1.5))
        assert str(got.value) == str(expected.value)
