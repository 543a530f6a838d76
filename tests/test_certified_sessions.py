"""Certified known sessions skip the three receiver tables, which they pass by construction.

A session is certified when its tensor is (``PreparationTensor._certified``:
weights byte-equal to a known preparation's) and its rows passed
``coefficient_table`` or ``bloch_table`` with c21 == conj(c12) exactly.
``TestMargins`` proves what the certificate assumes: each of the ten known
session maps has one real nonzero entry per row, the plan in ``PLANS``
that ``protocol._certified_fidelities`` reads, and that plan is a scaled
Pauli conjugation with scales of modulus 1/2 or 1. It runs the maps on the
rows nearest each coefficient bound and measures every quantity of the
skipped tables as ``require`` computes it, against the literal margins in
``MARGINS``, and checks that the certified fidelities are the checked
ones, byte for byte. A tolerance or a map that breaks the implication
fails there. ``TestCallers`` checks the same on the values that
``average_fidelity`` and ``sweep`` compute.
``TestPathSelection`` counts the tables that run: none of the three on a
certified call, all three on every other input, weights equal to a known
preparation's in value but not in bytes among them. It counts the calls of
the complex overlap ``_bilinear`` alike: none on a certified call, whose
fidelities are ``_real_bilinear``, one on every other input.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ensemble_teleport import (
    BELL_INDICES,
    ClassicalMessage,
    CoefficientVector,
    PreparationTensor,
    automatic_preparation,
    average_fidelity,
    bloch_coefficient_rows,
    cli,
    coefficient_rows,
    fidelity,
    linalg,
    protocol,
    receiver_states,
    resolve_preparation,
    run_session,
)
from ensemble_teleport.fidelity import SAMPLERS
from ensemble_teleport.linalg import (
    EQ_TOL,
    ON_NUMBERS,
    qubit_operator_table,
    real_overlap_table,
    renormalization_table,
)

SESSIONS = {f"Bell {k}, bob_acts={acts}": (k, acts) for k in BELL_INDICES for acts in (True, False)}
SESSIONS.update({f"automatic, bob_acts={acts}": (automatic_preparation(), acts) for acts in (True, False)})
MAPS = {name: resolve_preparation(prep).session_map(acts) for name, (prep, acts) in SESSIONS.items()}

# Each known session map's plan: row r of the mapped vector is scales[r] * c[columns[r]].
_HALF_IDENTITY = ((0, 1, 2, 3), (0.5, 0.5, 0.5, 0.5))
PLANS = {
    **{f"Bell {k}, bob_acts=True": _HALF_IDENTITY for k in BELL_INDICES},
    "Bell 1, bob_acts=False": ((3, 2, 1, 0), (0.5, -0.5, -0.5, 0.5)),
    "Bell 2, bob_acts=False": ((3, 2, 1, 0), (0.5, 0.5, 0.5, 0.5)),
    "Bell 3, bob_acts=False": ((0, 1, 2, 3), (0.5, -0.5, -0.5, 0.5)),
    "Bell 4, bob_acts=False": _HALF_IDENTITY,
    **{f"automatic, bob_acts={acts}": ((0, 1, 2, 3), (1.0, 1.0, 1.0, 1.0)) for acts in (True, False)},
}

# The largest value each skipped quantity may reach on a certified row, in the tables' order:
# renormalization_table (finite, |Im t|, -Re t of the raw trace t), qubit_operator_table (finite,
# asymmetry, |trace - 1|, -smallest eigenvalue) and real_overlap_table (|Im| of the overlap).
# - A plan scales the diagonal by s >= 1/2 and the halving by 1/2, both exact, so t = s/2 (c11 + c22)
#   is real and at least (1 - EQ_TOL) / 4.
# - The coherences are ±s c12 and ±s conj(c12), rounded alike, so the asymmetry is 0 and the two
#   coherence terms of the overlap's imaginary part cancel exactly.
# - The state is the mapped vector over t, so its trace is a/t + b/t with a + b = t: two ulps.
# - |c12|^2 <= c11 c22 + EQ_TOL and c11 + c22 >= 1 - EQ_TOL put the smallest eigenvalue at or above
#   -EQ_TOL / (1 - EQ_TOL)^2, a few ulps of 0.5 lower after rounding.
MARGINS = (0.0, 0.0, -0.2499999999997, 0.0, 0.0, 4.5e-16, 1.001e-12, 0.0)
_TABLES = (renormalization_table, qubit_operator_table, real_overlap_table)


def _edge_rows() -> np.ndarray:
    """Checked rows with c21 = conj(c12) exactly, each coefficient invariant at 0.9 EQ_TOL in turn and together.

    The trace c11 + c22 at 1 and 1 +- 0.9 EQ_TOL, c11 or c22 at -0.9 EQ_TOL,
    |c12|^2 at c11 c22 + 0.9 EQ_TOL in six phases, c11 at 0 and 1, seeded
    rows with all three at once, and parts of ±0.0, 5e-324 and -1e-323.
    """
    tol = 0.9 * EQ_TOL
    phases = [1.0, 1j, -1.0, -1j, complex(math.cos(0.3), math.sin(0.3)), complex(-math.sqrt(0.5), math.sqrt(0.5))]
    rows = []

    def add(c11, c22, excess=None):
        if excess is None:
            rows.append((c11, 0j, 0j, c22))
            return
        for phase in phases:
            c12 = math.sqrt(max(c11 * c22 + excess, 0.0)) * phase
            rows.append((c11, c12, c12.conjugate(), c22))

    for c11, dt in itertools.product([0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.25, 0.5, 0.75, 1.0 - 1e-6, 1.0], (-tol, 0.0, tol)):
        c22 = 1.0 + dt - c11
        add(c11, c22)
        add(c11, c22, tol)
        add(c22, c11, tol)
    for dt in (-tol, 0.0, tol):
        add(-tol, 1.0 + dt + tol)
        add(1.0 + dt + tol, -tol)
        add(-tol, 1.0 + dt + tol, tol)
    rng = np.random.default_rng(35)
    for c11, dt, slack in zip(rng.uniform(0.0, 1.0, 200), rng.uniform(-tol, tol, 200), rng.uniform(0.0, tol, 200)):
        add(c11, 1.0 + dt - c11, slack)
    parts = [0.0, -0.0, 5e-324, -1e-323]
    for c11, (re, im) in itertools.product([0.0, 1.0, 0.5, 0.3, 5e-324, -1e-323], itertools.product(parts, repeat=2)):
        rows.append((c11, complex(re, im), complex(re, -im), 1.0 - c11))
    a = np.array(rows, dtype=complex)
    return coefficient_rows(a[:, 0].real, a[:, 1], a[:, 2], a[:, 3].real)


def _shell_rows() -> np.ndarray:
    """Seeded Bloch rows with length^2 just inside 1 + EQ_TOL, those that pass the Bloch check."""
    bound = linalg._BLOCH_LENGTH[0]
    direction = np.random.default_rng(36).normal(size=(3, 2000))
    x, y, z = direction / np.sqrt((direction * direction).sum(axis=0)) * math.sqrt(bound)
    keep = x * x + y * y + z * z <= bound
    return bloch_coefficient_rows(x[keep], y[keep], z[keep])


ROWS = {"edges": _edge_rows(), "shell": _shell_rows()}


def _quantities(t, rows) -> np.ndarray:
    """The skipped tables' quantities on each row, as ``require`` computes them: an (entries, N) array.

    The raw operators and states are the checked path's matrix-vector products, and the overlap the complex
    ``_bilinear`` of those states: a certified batch computes none of them, only the overlap's real sum.
    """
    with np.errstate(all="ignore"):
        raw, states = protocol._mapped_states(t, rows)
    re, im = protocol._bilinear(rows.T, (states[:, 0, 0], states[:, 1, 0], states[:, 0, 1], states[:, 1, 1]))
    parts = zip(raw.reshape(-1, 4).tolist(), states.reshape(-1, 4).tolist(), map(complex, re.tolist(), im.tolist()))
    return np.array([
        [q for table, p in zip(_TABLES, (r, s, (o,))) for q, _, _ in table(ON_NUMBERS, p)] for r, s, o in parts
    ]).T


def _message(prep):
    return ClassicalMessage.two_bits(prep) if isinstance(prep, int) else ClassicalMessage.pre_agreed()


class TestMargins:
    def test_each_margin_is_inside_its_invariant(self):
        valid = ((0.25 + 0j, 0j, 0j, 0.25 + 0j), (0.5 + 0j, 0j, 0j, 0.5 + 0j), (0.5 + 0j,))
        bounds = [bound for table, p in zip(_TABLES, valid) for _, (bound, _), _ in table(ON_NUMBERS, p)]
        finite = [0, 3]
        assert all(MARGINS[k] == bounds[k] == 0.0 for k in finite)
        assert all(m < b for k, (m, b) in enumerate(zip(MARGINS, bounds)) if k not in finite)

    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_each_known_map_is_its_certified_plan(self, name):
        prep, _ = SESSIONS[name]
        t = MAPS[name]
        rows, columns = t.nonzero()  # what _certified_fidelities reads: one real nonzero entry per row
        assert rows.tolist() == [0, 1, 2, 3] and not t.imag.any()
        plan = (tuple(columns.tolist()), tuple(t.real[rows, columns].tolist()))
        assert plan == PLANS[name]
        # s * U . U† for a Pauli word U: the diagonal goes to the diagonal with one scale s > 0, the
        # coherences to the coherences with ±s, so a checked row maps to s times a statistical operator
        (d1, o1, o2, d2), (s11, s12, s21, s22) = plan
        assert {d1, d2} == {0, 3} and {o1, o2} == {1, 2}
        assert s11 == s22 > 0.0 and s12 == s21 and abs(s12) == s11
        assert s11 in (0.5, 1.0)  # the scales on which the kernel's halving folds into them exactly
        assert resolve_preparation(prep)._certified

    @pytest.mark.parametrize("rows", sorted(ROWS))
    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_rows_stay_within_the_margins(self, name, rows):
        for k, (quantity, margin) in enumerate(zip(_quantities(MAPS[name], ROWS[rows]), MARGINS)):
            assert np.all(quantity <= margin), (k, margin, np.max(quantity))

    def test_the_edge_rows_reach_the_margins(self):
        # the margins are close to what the rows reach, so a looser tolerance moves past them
        reached = np.max([_quantities(t, ROWS["edges"]).max(axis=1) for t in MAPS.values()], axis=0)
        assert reached[2] > -0.24999999999978
        assert reached[5] > 0.0
        assert reached[6] > 0.899e-12

    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_certified_outcome_is_the_checked_one(self, name):
        prep, acts = SESSIONS[name]
        t = MAPS[name]
        for rows in ROWS.values():
            certified = protocol._certified_fidelities(t, rows[:, 0].real, rows[:, 1], rows[:, 3].real)
            assert certified.tobytes() == receiver_states(t, rows)[1].tobytes()
        for row in ROWS["edges"]:
            c = CoefficientVector(row[0].real, row[1], row[2], row[3].real)
            record = run_session(c, prep, _message(prep), acts)
            state, fidelity = protocol._session_row(t, c.row)
            assert record.bob_state.tobytes() == state.tobytes()
            assert np.float64(record.fidelity).tobytes() == np.float64(fidelity).tobytes()
            states, fidelities = receiver_states(t, c.row)
            assert states[0].tobytes() == state.tobytes() and fidelities.tobytes() == np.float64(fidelity).tobytes()


@pytest.fixture
def kernel_values(monkeypatch):
    """The fidelities that each ``_certified_fidelities`` call of ``average_fidelity`` returns, in order."""
    values = []
    kernel = protocol._certified_fidelities

    def recording(*args):
        values.append(kernel(*args))
        return values[-1]

    monkeypatch.setattr(fidelity, "_certified_fidelities", recording)
    return values


class TestCallers:
    """The fidelities of a certified ``average_fidelity`` or ``sweep`` are the checked ones, byte for byte."""

    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_average_fidelity_averages_the_checked_values(self, kernel_values, name, sampler):
        prep, acts = SESSIONS[name]
        for seed in range(20):
            average_fidelity(prep, acts, sampler, n=200, seed=seed)
            rows = bloch_coefficient_rows(*SAMPLERS[sampler](np.random.default_rng(seed), 200))
            checked = protocol._session_states(MAPS[name], rows)[1]
            assert len(kernel_values) == seed + 1 and kernel_values[-1].tobytes() == checked.tobytes()

    @pytest.mark.parametrize("grid", ["grid", "pure", "zero"])
    @pytest.mark.parametrize("prep", cli._PREP_CHOICES)
    def test_sweep_writes_the_checked_values(self, prep, grid):
        argv = ["sweep", "--resolution", "30", "--phase-resolution", "4", "--slice", grid, "--prep", prep]
        c11, c12_re, c12_im, _, trace = cli._cmd_sweep(cli.build_parser().parse_args(argv))[1]
        c12 = np.empty(len(c11), dtype=complex)
        c12.real, c12.imag = c12_re, c12_im
        rows = coefficient_rows(c11, c12, c12.conj(), 1.0 - c11)
        assert trace.tobytes() == protocol._session_states(cli._PREPS[prep].session_map(False), rows)[1].tobytes()


OUTPUT_TABLES = list(_TABLES)


@pytest.fixture
def seen(monkeypatch):
    """The output tables that the session code hands to ``require`` and ``require_columns``, in order."""
    tables = []

    def counting(runner):
        def run(*checks):
            tables.extend(table for table, _ in checks if table in OUTPUT_TABLES)
            return runner(*checks)

        return run

    monkeypatch.setattr(protocol, "require", counting(linalg.require))
    monkeypatch.setattr(protocol, "require_columns", counting(linalg.require_columns))
    return tables


@pytest.fixture
def bilinear(monkeypatch):
    """One entry per call of ``protocol._bilinear``, the complex overlap that only a checked session computes."""
    calls = []
    complex_overlap = protocol._bilinear

    def counting(x, y):
        calls.append(None)
        return complex_overlap(x, y)

    monkeypatch.setattr(protocol, "_bilinear", counting)
    return calls


def _general_tensor():
    g = np.random.default_rng(0).normal(size=(4, 4, 2)).view(complex)[..., 0]
    psd = g @ g.conj().T + np.eye(4)  # positive definite: every session is valid
    return PreparationTensor(u=psd.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3), normalized=False)


# Bell 2's weights plus 1e-14: classified as Bell 2 within EQ_TOL, but not byte-equal to it
NEAR_BELL_2 = PreparationTensor(u=resolve_preparation(2).u + 1e-14)
VECTOR = CoefficientVector.from_bloch(0.3, -0.5, 0.4)
# TestEdgeOfTheTolerances' edge vector, its c21 0.999e-12j away from conj(c12): the constructor accepts it
EDGE_VECTOR = CoefficientVector(0.5, 0.500000000001, 0.500000000001 + 0.999e-12j, 0.5)


def _sweep(prep):
    return cli._cmd_sweep(cli.build_parser().parse_args(["sweep", "--resolution", "4", "--prep", prep]))


UNCERTIFIED = {
    "general tensor, run_session": lambda: run_session(VECTOR, _general_tensor(), ClassicalMessage.pre_agreed(), False),
    "general tensor, average_fidelity": lambda: average_fidelity(_general_tensor(), False, n=100),
    "Bell 2 plus 1e-14, run_session": lambda: run_session(VECTOR, NEAR_BELL_2, ClassicalMessage.two_bits(2), True),
    "Bell 2 plus 1e-14, average_fidelity": lambda: average_fidelity(NEAR_BELL_2, True, n=100),
    "edge vector": lambda: run_session(EDGE_VECTOR, 2, ClassicalMessage.two_bits(2), True),
    "row seam": lambda: run_session(SimpleNamespace(row=VECTOR.row), 2, ClassicalMessage.two_bits(2), True),
    "receiver_states": lambda: receiver_states(MAPS["Bell 2, bob_acts=True"], bloch_coefficient_rows(
        *SAMPLERS["mixed_uniform"](np.random.default_rng(1), 100)
    )),
}


class TestPathSelection:
    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_certified_calls_run_no_output_table(self, seen, bilinear, name):
        prep, acts = SESSIONS[name]
        run_session(VECTOR, prep, _message(prep), acts)
        run_session(CoefficientVector.from_components(0.5, 0.5), prep, _message(prep), acts)
        for sampler in sorted(SAMPLERS):
            average_fidelity(prep, acts, sampler, n=100)
        assert seen == [] and bilinear == []

    @pytest.mark.parametrize("prep", cli._PREP_CHOICES)
    def test_certified_sweep_runs_no_output_table(self, seen, bilinear, prep):
        _sweep(prep)
        assert seen == [] and bilinear == []

    @pytest.mark.parametrize("case", sorted(UNCERTIFIED))
    def test_every_other_input_runs_all_three(self, seen, bilinear, case):
        UNCERTIFIED[case]()
        assert seen == OUTPUT_TABLES and bilinear == [None]

    def test_a_sweep_of_near_weights_runs_all_three(self, seen, monkeypatch):
        monkeypatch.setitem(cli._PREPS, "bell2", NEAR_BELL_2)
        _sweep("bell2")
        assert seen == OUTPUT_TABLES

    def test_the_edge_vector_still_raises_its_message(self):
        # the defect that TestEdgeOfTheTolerances pins is reached only on the checked path
        c = CoefficientVector(0.5, 0.500000000001, 0.500000000001 + 1e-12j, 0.5)
        with pytest.raises(ValueError) as info:
            run_session(c, 2, ClassicalMessage.two_bits(2), True)
        assert str(info.value) == (
            "fidelity has non-negligible imaginary part 1.000e-12; the pipeline produced a non-Hermitian state"
        )

    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_weights_equal_but_not_byte_equal_run_all_three(self, seen, name):
        # the certificate is byte equality: -0.0 imaginary parts keep the values and the classification
        prep, acts = SESSIONS[name]
        known = resolve_preparation(prep)
        u = known.u.copy()
        u.imag = -0.0
        signed = PreparationTensor(u=u, normalized=known.normalized)
        assert np.array_equal(signed.u, known.u) and signed.u.tobytes() != known.u.tobytes()
        assert (signed.bell_index, signed.automatic) == (known.bell_index, known.automatic)
        assert signed._exact_ratio is None and not signed._certified
        average_fidelity(signed, acts, n=100)
        assert seen == OUTPUT_TABLES

    def test_near_weights_are_classified_but_not_certified(self):
        assert NEAR_BELL_2.bell_index == 2 and NEAR_BELL_2._exact_ratio is None and not NEAR_BELL_2._certified
        assert not _general_tensor()._certified
