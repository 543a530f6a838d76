"""The large-batch shortcuts change no bit, verdict or message.

``require_columns`` first runs every table on ``linalg.ON_BOUNDS``, whose
moduli are never below libm hypot's, and returns when every entry passes;
otherwise it hands ``require``, the one exact evaluation, only the rows that
failed an entry there. That is sound when each bounded quantity is at least
``require``'s (NaN counting as failing), which ``TestBoundsAreSound`` checks
on extreme parts; it pays only when valid batches pass on their bounds,
which ``TestNoFallback`` checks on the package's own batches; and
``TestCandidateRows`` checks which rows reach ``require``. A certified
batch computes its fidelities from its coefficient columns alone
(``_certified_fidelities``) instead of one matrix-vector product, one
division and one overlap per row; ``TestCertifiedKernel`` checks them
against that product path byte for byte on the known maps, on every
scaled Pauli conjugation of their scales, and on maps of any layout.
"""

import itertools
import math
import sys

import numpy as np
import pytest

from ensemble_teleport import cli, conventions, linalg, protocol
from ensemble_teleport.fidelity import SAMPLERS, average_fidelity
from ensemble_teleport.protocol import automatic_preparation, receiver_states, resolve_preparation
from conftest import exact_quantities
from test_check_tables import DBL_MAX, SPECIAL, TABLES

TINY = sys.float_info.min  # the smallest normal double


def _near(values):
    """Each value and its neighbours one and two ulps either side, with both signs."""
    out = []
    for v in values:
        up = math.nextafter(v, math.inf)
        down = math.nextafter(v, -math.inf)
        out += [v, up, down, math.nextafter(up, math.inf), math.nextafter(down, -math.inf)]
    return out + [-v for v in out]


# parts near the overflow and underflow of a square (1e+-154), subnormal, and near DBL_MAX
REALS = np.array(
    SPECIAL
    + _near([1e154, 1.3407807929942596e154, 1e-154, 1.4916681462400413e-154])
    + _near([5e-324, 1e-320, 1e-310, TINY, 2.0 * TINY, 0.5 * TINY])
    + _near([DBL_MAX, DBL_MAX / 2.0, DBL_MAX / math.sqrt(2.0), 1e308, 0.1, 0.3, 0.7, 1.0 / 3.0])
)


def _complex_pool(reals):
    """Complex parts: one part 0, equal parts, parts one ulp apart, opposite parts and seeded pairs."""
    rng = np.random.default_rng(7)
    finite, zero = reals[np.isfinite(reals)], np.zeros_like(reals)
    with np.errstate(over="ignore"):  # DBL_MAX's upper neighbour is inf
        up, down = np.nextafter(finite, np.inf), np.nextafter(finite, -np.inf)
    pairs = [
        (reals, zero),
        (zero, reals),
        (reals, reals),
        (finite, up),
        (finite, down),
        (reals, -reals),
        (rng.choice(reals, 4000), rng.choice(reals, 4000)),
    ]
    z = np.empty(sum(len(re) for re, _ in pairs), dtype=complex)
    z.real, z.imag = (np.concatenate(parts) for parts in zip(*pairs))
    return z


COMPLEXES = _complex_pool(REALS)


def _failing_key(quantity):
    """A quantity with NaN as +inf: NaN fails every bound, as +inf does."""
    q = np.array(quantity, dtype=float)
    return np.where(np.isnan(q), np.inf, q)


class TestBoundsAreSound:
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_each_bounded_quantity_is_at_least_the_exact_one(self, name):
        table, kinds, valid = TABLES[name]
        rng = np.random.default_rng(sorted(TABLES).index(name))
        n = 40000
        columns = []
        for i, kind in enumerate(kinds):
            pool = REALS if kind == "r" else COMPLEXES
            column = rng.choice(pool, n)
            # a quarter of the rows keep the valid part, so the other parts reach every quantity alone
            keep = rng.random(n) < 0.25
            column[keep] = valid[i]
            columns.append(column)
        with np.errstate(all="ignore"):
            bounded = table(linalg.ON_BOUNDS, tuple(columns))
        exact = exact_quantities(table, columns)
        for (b, _, _), e in zip(bounded, exact.T, strict=True):
            low = _failing_key(b) < _failing_key(e)
            assert not low.any(), [tuple(c[low][0] for c in columns), b[low][0], e[low][0]]

    @pytest.mark.parametrize("re", [0.0, 5e-324, 1e-300, 1.0, 1e154, DBL_MAX])
    @pytest.mark.parametrize("im", [0.0, 5e-324, 0.75, DBL_MAX])
    def test_modulus_bound(self, re, im):
        z = complex(re, im)
        with np.errstate(over="ignore"):
            assert linalg.ON_BOUNDS.modulus(np.array([z]))[0] >= np.hypot(z.real, z.imag)


# The nine known session maps: each Bell preparation with and without its correction, and the automatic one.
KNOWN_MAPS = {
    f"bell{i}{'' if acts else ' lazy'}": resolve_preparation(i).session_map(acts)
    for i in (1, 2, 3, 4)
    for acts in (True, False)
}
KNOWN_MAPS["automatic"] = automatic_preparation().session_map(True)


def _distinct(maps):
    """The distinct arrays among ``maps``, each by the names of the maps that share it."""
    shared = {}
    for name, t in maps.items():
        shared.setdefault(t.tobytes(), []).append(name)
    return {", ".join(names): maps[names[0]] for names in shared.values()}


DISTINCT_MAPS = _distinct(KNOWN_MAPS)  # five arrays

# Every row with its eight parts in {±0, ±1, 0.5, -3}, in 36 blocks of 6**6 rows.
GRID_PARTS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -3.0])
_GRID_TAIL = np.array(list(itertools.product(range(6), repeat=6)))


def grid_block(head):
    """The 6**6 grid rows whose first two parts are ``GRID_PARTS[head]``."""
    index = np.concatenate([np.broadcast_to(head, (len(_GRID_TAIL), 2)), _GRID_TAIL], axis=1)
    return GRID_PARTS[index].view(complex)


def outcome(t, rows):
    """``receiver_states`` on the batch: its bytes, or the message of the ValueError it raises."""
    try:
        return b"".join(a.tobytes() for a in receiver_states(t, rows))
    except ValueError as exc:
        return str(exc)


def hermitian_columns(parts):
    """The columns (c11, c12, c22) of the rows (c11, c12, conj(c12), c22) whose parts (c11, Re c12, Im c12, c22) are ``parts``."""
    c12 = np.empty(len(parts), dtype=complex)
    c12.real, c12.imag = parts[:, 1], parts[:, 2]
    return parts[:, 0].copy(), c12, parts[:, 3].copy()


# Every such row with its four parts among signed zeros, ±1, subnormals, ±2**-1022, 1e+-300 and 1/3: 15**4 rows.
KERNEL_PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 5e-324, -5e-324, 1e-323, -1e-323, TINY, -TINY, 1e300, 1e-300, 1.0 / 3.0]
KERNEL_GRID = hermitian_columns(np.array(list(itertools.product(KERNEL_PARTS, repeat=4))))


def product_fidelities(t, c11, c12, c22):
    """The checked path's fidelities of those rows under ``t``, unchecked: ``_bilinear``'s real part of the product's states."""
    rows = np.empty((len(c11), 4), dtype=complex)
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = c11, c12, c12.conj(), c22
    with np.errstate(all="ignore"):
        _, states = protocol._mapped_states(t, rows)
        return protocol._bilinear(rows.T, (states[:, 0, 0], states[:, 1, 0], states[:, 0, 1], states[:, 1, 1]))[0]


def assert_same_bits(t, columns):
    """``_certified_fidelities`` gives the product path's fidelities, byte for byte: returns how many are finite.

    A part that overflows is inf on one path and may be NaN on the other,
    so only the finite fidelities must agree byte for byte, and the same
    rows must be finite on both.
    """
    kernel, product = protocol._certified_fidelities(t, *columns), product_fidelities(t, *columns)
    finite = np.isfinite(product)
    assert np.array_equal(np.isfinite(kernel), finite)
    assert kernel[finite].tobytes() == product[finite].tobytes()
    return np.count_nonzero(finite)


# The eight plans (columns, scales) of a scaled Pauli conjugation s U . U† with s in {1/2, 1}: the diagonal and
# the coherences both kept or both swapped, the coherences scaled by ±s. The known maps have five of them.
CONJUGATION_PLANS = {
    f"{'swapped' if swap else 'kept'}, s={s}, coherences {sign}s": (
        (3, 2, 1, 0) if swap else (0, 1, 2, 3),
        (s, s if sign == "+" else -s, s if sign == "+" else -s, s),
    )
    for swap in (False, True)
    for s in (0.5, 1.0)
    for sign in "+-"
}


def conjugation_map(plan, rng):
    """The map of ``plan``, with -0.0 in some zero and imaginary parts."""
    columns, scales = plan
    t = np.zeros((4, 4), dtype=complex)
    t.real[np.arange(4), columns] = scales
    t.imag[rng.random((4, 4)) < 0.5] = -0.0
    t.real[(t.real == 0.0) & (rng.random((4, 4)) < 0.5)] = -0.0
    return t


class TestCertifiedKernel:
    @pytest.mark.parametrize("names", sorted(DISTINCT_MAPS))
    def test_known_maps_on_the_signed_zero_grid(self, names):
        assert assert_same_bits(DISTINCT_MAPS[names], KERNEL_GRID) > 30000

    def test_the_halving_folds_into_the_known_scales(self):
        # (c * s) * 0.5 == c * (0.5 * s) for |s| in {1/2, 1}: every subnormal c of up to 2**16 ulps, the
        # normals next to them, and c near the overflow; a scale of 1/4 rounds twice, one of 2 overflows
        ulps = np.arange(2**16) * 5e-324
        c = np.concatenate([ulps, -ulps, ulps + TINY, DBL_MAX - np.arange(2**16) * 2.0**971])
        with np.errstate(over="ignore"):
            for s in (0.5, -0.5, 1.0, -1.0):
                assert ((c * s) * 0.5).tobytes() == (c * (0.5 * s)).tobytes()
            for s in (0.25, 2.0):
                assert ((c * s) * 0.5).tobytes() != (c * (0.5 * s)).tobytes()

    @pytest.mark.parametrize("name", sorted(CONJUGATION_PLANS))
    def test_every_scaled_pauli_conjugation(self, name):
        # the kernel's arithmetic on every plan of the certified shape, not only the known maps'
        rng = np.random.default_rng(sorted(CONJUGATION_PLANS).index(name))
        t = conjugation_map(CONJUGATION_PLANS[name], rng)
        assert t.nonzero()[1].tolist() == list(CONJUGATION_PLANS[name][0])
        assert assert_same_bits(t, KERNEL_GRID) > 30000
        # random doubles, subnormal and huge parts, and the check tables' special parts
        parts = np.concatenate([rng.standard_normal(4000), rng.choice(REALS[np.isfinite(REALS)], 4000)])
        assert assert_same_bits(t, hermitian_columns(rng.permutation(parts).reshape(-1, 4))) > 1000

    @pytest.mark.parametrize("names", sorted(DISTINCT_MAPS))
    def test_any_layout_of_the_map(self, names):
        # the plan is read in row order from the map as it is laid out, whatever its strides
        t = DISTINCT_MAPS[names]
        strided = np.zeros((4, 8), dtype=complex)[:, ::2]
        strided[...] = t
        expected = protocol._certified_fidelities(t, *KERNEL_GRID)
        for layout in (np.asfortranarray(t), strided, t[::-1].copy()[::-1]):  # Fortran, strided, reversed rows
            assert not layout.flags.c_contiguous
            assert protocol._certified_fidelities(layout, *KERNEL_GRID).tobytes() == expected.tobytes()
            assert_same_bits(layout, KERNEL_GRID)

    def test_a_map_changed_in_place_is_read_anew(self):
        # no plan outlives the call: the kernel reads the map's entries each time
        t = KNOWN_MAPS["bell1"].copy()
        t[[0, 1, 2, 3]] = t[[3, 2, 1, 0]]
        t[[1, 2]] *= -1.0
        assert t.nonzero()[1].tolist() == [3, 2, 1, 0]
        assert_same_bits(t, KERNEL_GRID)
        t *= 2.0  # a plan of scale 1 that no known map has
        assert_same_bits(t, KERNEL_GRID)

    def test_a_signed_zero_map_keeps_the_product_bits(self):
        t = KNOWN_MAPS["automatic"].copy()
        signed = t.copy()
        signed.imag[0, 0] = -0.0
        signed.real[0, 1] = -0.0
        assert signed.tobytes() != t.tobytes() and np.array_equal(signed, t)
        assert assert_same_bits(signed, KERNEL_GRID) == assert_same_bits(t, KERNEL_GRID)


class TestKnownMapsOnCallerRows:
    """A known map given to ``receiver_states`` takes the product and every check, on any map type and batch layout."""

    @pytest.mark.parametrize("n", [1, 1000])
    @pytest.mark.parametrize("names", sorted(DISTINCT_MAPS))
    def test_a_float_map_gives_the_bits_of_its_complex_copy(self, names, n):
        real = DISTINCT_MAPS[names].real.copy()
        rows = grid_block((2, 5))[:: len(_GRID_TAIL) // n][:n]
        assert outcome(real, rows) == outcome(real.astype(complex), rows)

    def test_any_layout_of_the_batch(self):
        rows = protocol.bloch_coefficient_rows(*SAMPLERS["pure_uniform"](np.random.default_rng(4), 400))
        t = KNOWN_MAPS["bell2 lazy"]
        expected = outcome(t, rows)
        assert isinstance(expected, bytes)
        assert outcome(t, np.asfortranarray(rows)) == expected
        assert outcome(t, np.repeat(rows, 2, axis=0)[::2]) == expected

    @pytest.mark.parametrize("name", sorted(KNOWN_MAPS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_raise_the_same_message(self, name, bad):
        # a known map on a caller's rows takes the product and its checks: the batch raises the broken row's message
        rng = np.random.default_rng(3)
        rows = protocol.bloch_coefficient_rows(*SAMPLERS["mixed_uniform"](rng, 200))
        for part in range(8):
            broken = rows.copy()
            broken.view(float)[17 + part, part] = bad
            with pytest.raises(ValueError, match="^matrix contains NaN or Inf entries$") as batch:
                receiver_states(KNOWN_MAPS[name], broken)
            with pytest.raises(ValueError) as alone:
                receiver_states(KNOWN_MAPS[name], broken[17 + part][None])
            assert str(batch.value) == str(alone.value)


@pytest.fixture
def fallbacks(monkeypatch):
    """The rows ``require_columns`` handed to ``require``, each as the parts of its checks."""
    rows = []
    exact = linalg.require
    monkeypatch.setattr(linalg, "require", lambda *checks: rows.append([parts for _, parts in checks]) or exact(*checks))
    return rows


class TestNoFallback:
    """Valid batches pass on their bounds: a looser bound would send every row of every batch to ``require``."""

    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    @pytest.mark.parametrize("prep, bob_acts", [(i, acts) for i in (1, 2, 3, 4) for acts in (True, False)] + [("paut", True)])
    def test_average_fidelity(self, prep, bob_acts, sampler, fallbacks):
        prep = automatic_preparation() if prep == "paut" else prep
        average_fidelity(prep, bob_acts, sampler, n=1000, seed=11)
        assert fallbacks == []

    @pytest.mark.parametrize("grid, rows", [("grid", 3600), ("pure", 120), ("zero", 30)])
    @pytest.mark.parametrize("prep", cli._PREP_CHOICES)
    def test_sweep(self, prep, grid, rows, fallbacks, capsys):
        argv = ["sweep", "--resolution", "30", "--phase-resolution", "4", "--slice", grid, "--prep", prep]
        assert cli.main([*argv, "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == rows + 1
        assert fallbacks == []

    def test_a_failing_batch_is_evaluated_exactly(self, fallbacks):
        c12 = np.full(100, 0.1 + 0j)
        c12[40] = 0.75
        with pytest.raises(ValueError, match="positivity"):
            protocol.coefficient_rows(np.full(100, 0.5), c12, c12.conj(), np.full(100, 0.5))
        assert fallbacks == [[[0.5, 0.75 + 0j, 0.75 - 0j, 0.5]]]


# Row 3's Hermiticity quantity |c21 - conj(c12)| is exactly EQ_TOL: it passes exactly but fails its bound.
ON_THE_BOUND = (0.5, 0j, complex(linalg.EQ_TOL, 0.0), 0.5)
VALID = (0.5, 0.1 + 0j, 0.1 + 0j, 0.5)


def ten_rows(row7=VALID):
    """The columns of ten valid coefficient rows, with ``ON_THE_BOUND`` at row 3 and ``row7`` at row 7."""
    rows = [VALID] * 10
    rows[3], rows[7] = ON_THE_BOUND, row7
    return [np.array(column) for column in zip(*rows)]


class TestCandidateRows:
    """``require`` runs on the rows that fail an entry on their bounds, lowest first, and on no other row."""

    def test_a_row_on_its_bound_passes(self, fallbacks):
        assert exact_quantities(linalg.coefficient_table, ten_rows())[3, 4] == linalg.EQ_TOL
        rows = protocol.coefficient_rows(*ten_rows())
        assert rows[3].tolist() == list(ON_THE_BOUND)
        assert fallbacks == [[list(ON_THE_BOUND)]]

    def test_the_first_row_that_fails_exactly_raises(self, fallbacks):
        with pytest.raises(ValueError) as info:
            protocol.coefficient_rows(*ten_rows((0.5, 0.75 + 0j, 0.75 + 0j, 0.5)))
        with pytest.raises(ValueError) as one:
            protocol.CoefficientVector(0.5, 0.75, 0.75, 0.5)
        assert str(info.value) == str(one.value)
        assert str(info.value).startswith("positivity constraint violated")
        assert fallbacks == [[list(ON_THE_BOUND)], [[0.5, 0.75 + 0j, 0.75 + 0j, 0.5]]]

    @pytest.mark.parametrize("n", [0, 1])
    def test_small_batches_skip_the_bounds(self, n, monkeypatch, fallbacks):
        monkeypatch.delattr(linalg, "ON_BOUNDS")  # evaluating a bound would raise NameError
        x, y, z = np.zeros((3, n))
        rows = protocol.bloch_coefficient_rows(x, y, z)
        c11, c12, c21, c22 = rows.T
        assert protocol.coefficient_rows(c11.real, c12, c21, c22.real).tobytes() == rows.tobytes()
        receiver_states(KNOWN_MAPS["bell1"], rows)
        conventions._compare_rows(2, rows)
        assert len(fallbacks) == 4 * n
