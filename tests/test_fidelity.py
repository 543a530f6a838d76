import re
import warnings

import numpy as np
import pytest

from ensemble_teleport import (
    AverageFidelity,
    CoefficientVector,
    alice_prepare,
    automatic_preparation,
    average_fidelity,
    bloch_coefficient_rows,
    fidelity_report,
    fidelity_trace,
    fidelity_vector,
    lazy_fidelity,
    matrix_unit,
    maximize_lazy_fidelity,
    pauli,
    preparation_from_bell,
    receiver_states,
    renormalize,
    require_statistical_operator,
    resolve_preparation,
    sample_mixed_uniform,
    sample_pure_uniform,
    transformation_matrix,
)
from ensemble_teleport import fidelity
from ensemble_teleport.linalg import BOUNDED, MAX_ENTRY
from ensemble_teleport.fidelity import SAMPLERS
from conftest import random_coefficients

BELL1_COEFFICIENT_MAP = transformation_matrix(preparation_from_bell(1))


class TestFidelityTrace:
    def test_pure_self_overlap_is_one(self, rng):
        for c in random_coefficients(rng, 10, kind="pure"):
            assert abs(fidelity_trace(c, c.matrix()) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        c = CoefficientVector.from_components(1.0)
        assert fidelity_trace(c, matrix_unit(2, 2)) == 0.0

    def test_lazy_mixed_case_is_half(self):
        c = CoefficientVector.from_components(0.5)
        s1, s3 = pauli(1), pauli(3)
        bob = s3 @ s1 @ c.matrix() @ s1 @ s3
        assert abs(fidelity_trace(c, bob) - 0.5) < 1e-12

    # fidelity_trace checks what receiver_states checks, in its order: a
    # statistical operator (Hermitian, unit trace, positive), then a real overlap.
    def test_rejects_non_unit_trace(self):
        c = CoefficientVector.from_components(0.5)
        with pytest.raises(ValueError, match=re.escape("not a statistical operator: not unit-trace (trace 0.5+0j)")):
            fidelity_trace(c, 0.25 * np.eye(2))

    def test_overflowing_trace_gap_fails_the_bound(self):
        # |trace - 1| would exceed the largest double; the entries exceed the magnitude bound first
        c = CoefficientVector.from_components(0.5)
        with pytest.raises(ValueError) as info:
            fidelity_trace(c, 0.75e308 * (1 + 1j) * np.eye(2))
        assert str(info.value) == BOUNDED[1](complex(0.75e308, 0.75e308))

    def test_large_trace_gap_fails_hermiticity_first(self):
        # at the bound, the imaginary diagonal is checked before the trace
        c = CoefficientVector.from_components(0.5)
        with pytest.raises(ValueError, match=re.escape("not Hermitian (asymmetry 2.582e+120)")):
            fidelity_trace(c, 0.5 * MAX_ENTRY * (1 + 1j) * np.eye(2))

    def test_non_hermitian_fails_before_its_imaginary_overlap(self):
        c = CoefficientVector.from_components(0.5, 0.25j)
        bob = np.array([[0.5, 0.5], [0.0, 0.5]])  # non-Hermitian, unit trace, overlap 0.5 - 0.125j
        with pytest.raises(ValueError, match=re.escape("not Hermitian (asymmetry 5.000e-01)")):
            fidelity_trace(c, bob)

    def test_rejects_imaginary_overlap(self):
        # Hermitian within HERMITICITY_TOL, but the overlap keeps an imaginary 1.5e-11
        c = CoefficientVector.from_components(0.5, 0.3j)
        bob = np.array([[0.5, 0.3j], [-0.3j + 5e-11, 0.5]])
        with pytest.raises(ValueError, match="fidelity has non-negligible imaginary part 1.500e-11"):
            fidelity_trace(c, bob)

    def test_rejects_negative_eigenvalue(self):
        c = CoefficientVector.from_components(1.0)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            fidelity_trace(c, [[1.5, 0.0], [0.0, -0.5]])

    def test_rejects_non_hermitian_with_real_overlap(self):
        c = CoefficientVector.from_components(0.5)
        bob = np.array([[0.5, 0.5], [0.0, 0.5]])  # unit trace, overlap 0.5
        with pytest.raises(ValueError, match="not Hermitian"):
            fidelity_trace(c, bob)

    def test_symmetric_in_its_arguments(self, rng):
        a, b = random_coefficients(rng, 2)
        assert abs(fidelity_trace(a, b.matrix()) - fidelity_trace(b, a.matrix())) < 1e-14

    def test_bounded_by_unit_interval(self, rng):
        for _ in range(50):
            a, b = random_coefficients(rng, 2)
            value = fidelity_trace(a, b.matrix())
            assert -1e-12 <= value <= 1.0 + 1e-12


class TestFidelityVector:
    def test_identity_map_on_pure_real_input(self):
        c = CoefficientVector.from_components(0.25, np.sqrt(0.25 * 0.75))
        assert abs(fidelity_vector(c, np.eye(4)) - 1.0) < 1e-12

    def test_antidiagonal_map_on_maximally_mixed(self):
        c = CoefficientVector.from_components(0.5)
        assert abs(fidelity_vector(c, BELL1_COEFFICIENT_MAP) - 0.5) < 1e-12

    def test_antidiagonal_map_on_basis_state(self):
        c = CoefficientVector.from_components(1.0)
        assert abs(fidelity_vector(c, BELL1_COEFFICIENT_MAP)) < 1e-12

    def test_matches_lazy_closed_form_for_real_offdiagonal(self, rng):
        for _ in range(50):
            c11 = rng.uniform(0.0, 1.0)
            mag = rng.uniform(0.0, np.sqrt(c11 * (1 - c11)))
            c = CoefficientVector.from_components(c11, mag)
            assert abs(fidelity_vector(c, BELL1_COEFFICIENT_MAP) - lazy_fidelity(c)) < 1e-12

    def test_rejects_annihilating_map(self):
        c = CoefficientVector.from_components(0.5)
        with pytest.raises(ValueError, match="annihilates"):
            fidelity_vector(c, np.zeros((4, 4)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("where", [(1, 2), (0, 0), (3, 1)])
    def test_rejects_a_non_finite_map(self, entry, where):
        # a nan off the trace rows used to give a nan fidelity and no error
        t = np.eye(4, dtype=complex)
        t[where] = entry
        with pytest.raises(ValueError) as info:
            fidelity_vector(CoefficientVector.from_components(0.5, 0.25), t)
        assert str(info.value) == "matrix contains NaN or Inf entries"

    @pytest.mark.parametrize(
        "scale, message",
        [
            # the trace component used to overflow to inf - inf and be named as not finite
            (1.7e308, BOUNDED[1](1.7e308 + 0j)),
            (MAX_ENTRY, "transformation annihilates the input: trace component 0j"),
        ],
    )
    def test_rejects_a_cancelling_trace_component(self, scale, message):
        t = np.zeros((4, 4), dtype=complex)
        t[0, :3], t[3, :3] = scale, -scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                fidelity_vector(CoefficientVector.from_components(0.5, 0.5), t)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "value, message",
        [
            # a trace component of +inf used to be named as not finite, and before that to warn and return 0.0
            (1e308, BOUNDED[1](1e308 + 0j)),
            # the product itself used to overflow, and before that was named an annihilation
            (1.7e308, BOUNDED[1](1.7e308 + 0j)),
        ],
    )
    def test_rejects_an_overflowing_map(self, value, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                fidelity_vector(CoefficientVector.from_bloch(0.1, 0.2, 0.3), np.full((4, 4), value))
        assert str(info.value) == message

    def test_a_map_at_the_bound_gives_a_finite_value(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fidelity_vector(CoefficientVector.from_bloch(0.1, 0.2, 0.3), np.full((4, 4), MAX_ENTRY)) == 0.55
            t = np.eye(4, dtype=complex)
            t[1, :3] = MAX_ENTRY
            assert np.isfinite(fidelity_vector(CoefficientVector.from_components(0.5, 0.5), t))

    def test_rejects_a_large_entry_off_the_trace_rows(self):
        # its contamination used to overflow, and the value came back nan
        t = np.eye(4, dtype=complex)
        t[1, :3] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                fidelity_vector(CoefficientVector.from_components(0.5, 0.5), t)
        assert str(info.value) == BOUNDED[1](1.7e308 + 0j)


class TestLazyFidelity:
    def test_maximally_mixed(self):
        assert abs(lazy_fidelity(CoefficientVector.from_components(0.5)) - 0.5) < 1e-15

    def test_basis_state(self):
        assert lazy_fidelity(CoefficientVector.from_components(1.0)) == 0.0

    def test_vanishes_on_pure_inputs(self, rng):
        # closed form gives 2 c11 c22 - 2 |c12|^2, zero under the purity equality;
        # cross-check by scanning the pure boundary
        grid = np.linspace(0.0, 1.0, 101)
        worst = max(
            abs(lazy_fidelity(CoefficientVector.from_components(c11, np.sqrt(c11 * (1 - c11)))))
            for c11 in grid
        )
        assert worst < 1e-12
        for c in random_coefficients(rng, 25, kind="pure"):
            assert abs(lazy_fidelity(c)) < 1e-12

    def test_phase_independent(self, rng):
        c11 = 0.4
        mag = 0.3
        values = {
            round(lazy_fidelity(CoefficientVector.from_components(c11, mag * np.exp(1j * t))), 14)
            for t in np.linspace(0, 2 * np.pi, 7)
        }
        assert len(values) == 1


class TestMaximizeLazyFidelity:
    def test_finds_half_at_maximally_mixed(self):
        result = maximize_lazy_fidelity(100)
        assert abs(result.value - 0.5) < 1e-6
        assert abs(result.argmax.c11 - 0.5) < 1e-6
        assert abs(result.argmax.c12) < 1e-12

    def test_resolution_insensitive(self):
        coarse = maximize_lazy_fidelity(10)
        fine = maximize_lazy_fidelity(1000)
        assert abs(coarse.argmax.c11 - fine.argmax.c11) < 1.0 / 9.0
        assert abs(coarse.value - fine.value) < 1e-6

    def test_symmetric_under_offdiagonal_sign_flip(self):
        result = maximize_lazy_fidelity(50)
        flipped = CoefficientVector.from_components(result.argmax.c11, -result.argmax.c12)
        assert abs(lazy_fidelity(flipped) - result.value) < 1e-12

    def test_rejects_small_resolution(self):
        with pytest.raises(ValueError, match="at least 10"):
            maximize_lazy_fidelity(9)

    @pytest.mark.parametrize("resolution", [10.9, 12.0, "12", True, np.float64(20.0)])
    def test_rejects_non_integer_resolution(self, resolution):
        with pytest.raises(ValueError) as info:
            maximize_lazy_fidelity(resolution)
        assert str(info.value) == f"grid_resolution must be an integer, got {resolution!r}"

    def test_golden_section_search_on_ends_that_do_not_sum_to_one(self):
        # maximize_lazy_fidelity's searches close on c11 = 0.5, where a + b = 1 and 0.5 * (a + b) = 0.5 / (a + b)
        assert abs(fidelity._golden_section_max(lambda x: -(x - 0.3) ** 2, 0.0, 0.9) - 0.3) <= 1e-9

    @pytest.mark.parametrize("resolution", [10, 11, 37, np.int64(37), 50, 100, 101, 200, 1001])
    def test_matches_the_scalar_scan_bit_for_bit(self, resolution):
        result = maximize_lazy_fidelity(resolution)
        expected = loop_maximize_lazy_fidelity(resolution)
        assert (result.value, result.argmax.c11, result.argmax.c12) == expected


def loop_maximize_lazy_fidelity(resolution):
    """The scalar double loop over (c11, |c12|), then the same refinement: (value, c11, c12).

    The oracle for the one-axis scan, which drops |c12| because the
    objective falls with it.
    """
    best_value, best_c11, best_mag = -np.inf, 0.0, 0.0
    for c11 in np.linspace(0.0, 1.0, resolution):
        c22 = 1.0 - c11
        for mag in np.linspace(0.0, np.sqrt(max(c11 * c22, 0.0)), resolution):
            value = 2.0 * c11 * c22 - 2.0 * mag * mag
            if value > best_value:
                best_value, best_c11, best_mag = value, float(c11), float(mag)
    spacing = 1.0 / (resolution - 1)
    refined = fidelity._golden_section_max(
        lambda c11: 2.0 * c11 * (1.0 - c11) - 2.0 * best_mag * best_mag,
        max(0.0, best_c11 - spacing),
        min(1.0, best_c11 + spacing),
    )
    argmax = CoefficientVector.from_components(refined, best_mag)
    return lazy_fidelity(argmax), argmax.c11, argmax.c12


class TestSamplers:
    def test_pure_samples_sit_on_the_boundary(self, rng):
        for _ in range(50):
            c = sample_pure_uniform(rng)
            assert abs(abs(c.c12) ** 2 - c.c11 * c.c22) < 1e-12

    def test_mixed_samples_are_valid(self, rng):
        for _ in range(50):
            c = sample_mixed_uniform(rng)
            assert abs(c.c12) ** 2 <= c.c11 * c.c22 + 1e-12

    def test_deterministic_for_fixed_seed(self):
        a = sample_pure_uniform(np.random.default_rng(5))
        b = sample_pure_uniform(np.random.default_rng(5))
        assert a == b


# The per-sample samplers and loop that average_fidelity ran before it drew
# and evaluated all samples as arrays; kept as the reference for its stream.
def scalar_pure_uniform(rng):
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    r = np.sqrt(max(1.0 - z * z, 0.0))
    return CoefficientVector.from_bloch(r * np.cos(phi), r * np.sin(phi), z)


def scalar_mixed_uniform(rng):
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    radius = rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
    r = np.sqrt(max(1.0 - z * z, 0.0))
    return CoefficientVector.from_bloch(radius * r * np.cos(phi), radius * r * np.sin(phi), radius * z)


SCALAR_SAMPLERS = {"pure_uniform": scalar_pure_uniform, "mixed_uniform": scalar_mixed_uniform}
PUBLIC_SAMPLERS = {"pure_uniform": sample_pure_uniform, "mixed_uniform": sample_mixed_uniform}


def loop_average_fidelity(prep, bob_acts, sampler, n, seed):
    t = resolve_preparation(prep).session_map(bob_acts)
    draw = SCALAR_SAMPLERS[sampler]
    rng = np.random.default_rng(seed)
    values = np.empty(n, dtype=float)
    for i in range(n):
        c = draw(rng)
        state = renormalize(0.5 * (t @ c.as_vector()).reshape(2, 2))
        require_statistical_operator(state)
        values[i] = fidelity_trace(c, state)
    return AverageFidelity(mean=float(values.mean()), stderr=float(values.std(ddof=1) / np.sqrt(n)))


class TestSeededStream:
    @pytest.mark.parametrize("n, seed", [(100, 0), (100, 11), (100, 23), (1000, 5)])
    @pytest.mark.parametrize("sampler", sorted(SCALAR_SAMPLERS))
    @pytest.mark.parametrize("bob_acts", [True, False])
    @pytest.mark.parametrize("prep", [1, 2, 3, 4, "automatic"])
    def test_average_fidelity_equals_the_loop(self, prep, bob_acts, sampler, n, seed):
        prep = automatic_preparation() if prep == "automatic" else prep
        expected = loop_average_fidelity(prep, bob_acts, sampler, n, seed)
        assert average_fidelity(prep, bob_acts, sampler=sampler, n=n, seed=seed) == expected

    @pytest.mark.parametrize("sampler", sorted(SCALAR_SAMPLERS))
    def test_batched_draw_equals_successive_samples(self, sampler):
        for seed in (0, 7, 11):
            batch_rng, loop_rng, public_rng = (np.random.default_rng(seed) for _ in range(3))
            rows = bloch_coefficient_rows(*SAMPLERS[sampler](batch_rng, 500))
            loop = np.array([SCALAR_SAMPLERS[sampler](loop_rng).as_vector() for _ in range(500)])
            public = np.array([PUBLIC_SAMPLERS[sampler](public_rng).as_vector() for _ in range(500)])
            assert rows.tobytes() == loop.tobytes() == public.tobytes()
            # The same number of doubles was taken from each stream.
            assert batch_rng.random() == loop_rng.random() == public_rng.random()


class TestSummaryStatistics:
    """The mean and stderr are numpy's own ``mean()`` and ``std(ddof=1)`` of the overlaps, bit for bit.

    From 8193 values on, numpy's reductions buffer the strided overlaps in
    blocks of 8192, so those sizes cross a block boundary.
    """

    @pytest.mark.parametrize("n", [100, 1000, 8193, 20000])
    @pytest.mark.parametrize(
        "prep, bob_acts, sampler",
        [(2, True, "pure_uniform"), (1, False, "mixed_uniform"), ("automatic", False, "mixed_uniform")],
    )
    def test_equal_numpys_mean_and_std(self, prep, bob_acts, sampler, n):
        prep = automatic_preparation() if prep == "automatic" else prep
        x, y, z = SAMPLERS[sampler](np.random.default_rng(n), n)
        _, values = receiver_states(resolve_preparation(prep).session_map(bob_acts), bloch_coefficient_rows(x, y, z))
        expected = (values.mean(), values.std(ddof=1) / np.sqrt(n))
        got = average_fidelity(prep, bob_acts, sampler=sampler, n=n, seed=n)
        assert np.array(got).tobytes() == np.array(expected).tobytes()


# Uncorrected Bell k maps input Bloch vector r to R_k r, so its fidelity is (1 + r.R_k r)/2.
BELL_ROTATIONS = {1: (-1, 1, -1), 2: (1, -1, -1), 3: (-1, -1, 1), 4: (1, 1, 1)}


class TestBlochForm:
    """Session fidelities against the closed Bloch form, an oracle that does not use the 8x8 path.

    Corrected Bell sessions and the automatic preparation return the input,
    with fidelity (1 + |r|^2)/2.
    """

    @staticmethod
    def inputs(sampler):
        x, y, z = SAMPLERS[sampler](np.random.default_rng(sorted(SAMPLERS).index(sampler)), 1000)
        points = np.array([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], dtype=float)
        return np.concatenate([np.stack([x, y, z], axis=1), points])

    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    @pytest.mark.parametrize(
        "prep, bob_acts",
        [(k, False) for k in BELL_ROTATIONS] + [(k, True) for k in BELL_ROTATIONS]
        + [("automatic", False), ("automatic", True)],
    )
    def test_fidelity_is_the_closed_form(self, prep, bob_acts, sampler):
        r = self.inputs(sampler)
        if prep == "automatic" or bob_acts:
            expected = (1 + (r * r).sum(axis=1)) / 2
        else:
            expected = (1 + (r * np.array(BELL_ROTATIONS[prep]) * r).sum(axis=1)) / 2
        u = automatic_preparation() if prep == "automatic" else resolve_preparation(prep)
        t = u.session_map(bob_acts)
        _, batch = receiver_states(t, bloch_coefficient_rows(*r.T))
        assert np.max(np.abs(batch - expected)) <= 1e-12
        for point, wanted in zip(r, expected):
            _, one = receiver_states(t, bloch_coefficient_rows(*point[:, None]))
            assert abs(one[0] - wanted) <= 1e-12


class TestAverageFidelity:
    def test_automatic_preparation_is_perfect(self):
        result = average_fidelity(
            automatic_preparation(), bob_acts=False, sampler="pure_uniform", n=200, seed=9
        )
        assert abs(result.mean - 1.0) < 1e-12
        assert result.stderr < 1e-12

    def test_corrected_projective_is_perfect(self):
        result = average_fidelity(1, bob_acts=True, sampler="pure_uniform", n=200, seed=9)
        assert abs(result.mean - 1.0) < 1e-12
        assert result.stderr < 1e-12

    def test_uncorrected_trace_and_lazy_forms_diverge_on_pure_inputs(self):
        # the closed form is identically zero on pure inputs, while the trace
        # overlap averages to 1/3 (the squared y Bloch component, mean 1/3 on
        # the sphere); both facts are checked against the same sample stream
        seed, n = 13, 2000
        result = average_fidelity(1, bob_acts=False, sampler="pure_uniform", n=n, seed=seed)
        rng = np.random.default_rng(seed)
        lazy_values = [lazy_fidelity(sample_pure_uniform(rng)) for _ in range(n)]
        assert max(abs(v) for v in lazy_values) < 1e-12
        assert abs(result.mean - 1.0 / 3.0) < 5 * result.stderr

    def test_deterministic(self):
        first = average_fidelity(2, bob_acts=True, sampler="mixed_uniform", n=150, seed=3)
        second = average_fidelity(2, bob_acts=True, sampler="mixed_uniform", n=150, seed=3)
        assert first == second

    def test_rejects_small_samples(self):
        with pytest.raises(ValueError, match="at least 100"):
            average_fidelity(1, bob_acts=True, n=50)

    @pytest.mark.parametrize("sampler", ["magic", ["pure_uniform"], None, b"pure_uniform"], ids=["name", "list", "None", "bytes"])
    def test_rejects_unknown_sampler(self, sampler):
        with pytest.raises(ValueError, match=r"^unknown sampler .*; expected one of \['mixed_uniform', 'pure_uniform'\]$"):
            average_fidelity(1, bob_acts=True, sampler=sampler)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n": 1000.5}, "n must be an integer, got 1000.5"),
            ({"n": 1000.0}, "n must be an integer, got 1000.0"),
            ({"n": np.float64(200)}, "n must be an integer, got np.float64(200.0)"),
            ({"n": True}, "n must be an integer, got True"),
            ({"n": "200"}, "n must be an integer, got '200'"),
            ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
            ({"seed": -1}, "seed must be a non-negative integer, got -1"),
            ({"seed": np.int64(-3)}, "seed must be a non-negative integer, got np.int64(-3)"),
            ({"seed": False}, "seed must be a non-negative integer, got False"),
            ({"seed": None}, "seed must be a non-negative integer, got None"),
            ({"seed": "3"}, "seed must be a non-negative integer, got '3'"),
        ],
    )
    def test_rejects_a_count_or_seed_that_is_not_an_integer(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            average_fidelity(2, True, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("n, seed", [(np.int64(150), np.uint32(3)), (np.int32(150), np.int8(3)), (150, 2**70 + 3)])
    def test_accepts_numpy_and_large_integers(self, n, seed):
        assert average_fidelity(2, False, n=n, seed=seed) == average_fidelity(2, False, n=int(n), seed=int(seed))


class TestFidelityReport:
    def test_agreeing_forms(self):
        c = CoefficientVector.from_components(0.5)
        s1, s3 = pauli(1), pauli(3)
        bob = s3 @ s1 @ c.matrix() @ s1 @ s3
        report = fidelity_report(c, BELL1_COEFFICIENT_MAP, bob)
        assert report.agree
        assert report.note == ""
        assert abs(report.trace_form - 0.5) < 1e-12
        assert abs(report.vector_form - 0.5) < 1e-12

    def test_divergence_is_recorded_for_complex_offdiagonal(self):
        # uncorrected receiver state for the first projective preparation
        c = CoefficientVector.from_components(0.5, 0.4j)
        u = preparation_from_bell(1)
        bob = renormalize(alice_prepare(u, c))
        report = fidelity_report(c, transformation_matrix(u), bob)
        assert not report.agree
        assert "differ" in report.note
        # trace form picks up +2 Im(c12)^2 where the bilinear form subtracts it
        assert abs(report.trace_form - (0.5 + 2 * 0.16)) < 1e-12
        assert abs(report.vector_form - (0.5 - 2 * 0.16)) < 1e-12
