"""Acceptance suite: one test per top-level numerical claim, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion alongside the measured residuals.
"""

import time

import numpy as np
import pytest

from ensemble_teleport import (
    BELL_INDICES,
    ClassicalMessage,
    CoefficientVector,
    alice_prepare,
    automatic_preparation,
    bell_projector,
    compare_conventions,
    decompose_total_state,
    hermitian_spectrum,
    lazy_fidelity,
    maximize_lazy_fidelity,
    partial_transpose,
    pauli,
    ppt_entangled,
    prepare_sandwich,
    preparation_from_bell,
    renormalize,
    run_session,
    sample_mixed_uniform,
    sample_pure_uniform,
    sandwich_numerator,
    spectral_norm,
    total_state,
    transformation_matrix,
)

SEED = 20240817


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_inputs(n: int, kind: str = "mixed") -> list[CoefficientVector]:
    rng = np.random.default_rng(SEED)
    draw = sample_pure_uniform if kind == "pure" else sample_mixed_uniform
    return [draw(rng) for _ in range(n)]


def test_criterion_1_bell_operator_algebra():
    idem = max(
        float(np.max(np.abs(bell_projector(i) @ bell_projector(i) - bell_projector(i))))
        for i in BELL_INDICES
    )
    ortho = max(
        float(np.max(np.abs(bell_projector(i) @ bell_projector(j))))
        for i in BELL_INDICES
        for j in BELL_INDICES
        if i != j
    )
    ok = idem < 1e-12 and ortho < 1e-12
    _report(
        "bell operator algebra",
        ok,
        f"max idempotence residual {idem:.2e}, max cross product {ortho:.2e} (tol 1e-12)",
    )


def test_criterion_2_entanglement_audit():
    minima = [
        float(hermitian_spectrum(partial_transpose(bell_projector(i)))[-1])
        for i in BELL_INDICES
    ]
    verdicts = [ppt_entangled(bell_projector(i)) for i in BELL_INDICES]
    ok = all(m <= -0.5 + 1e-10 for m in minima) and all(verdicts)
    _report(
        "entanglement audit",
        ok,
        f"min partial-transpose eigenvalues {[f'{m:.12f}' for m in minima]}, "
        "all at -1/2 and all flagged entangled",
    )


def test_criterion_3_total_state_decomposition():
    worst = 0.0
    for c in _random_inputs(100):
        decomposition = decompose_total_state(c)
        residual = float(np.max(np.abs(decomposition.reconstruction() - 2 * total_state(c))))
        worst = max(worst, residual)
    ok = worst < 1e-12
    _report(
        "total-state decomposition",
        ok,
        f"worst reconstruction residual {worst:.2e} over 100 random inputs (tol 1e-12)",
    )


def test_criterion_4_first_projective_preparation():
    s1, s3 = pauli(1), pauli(3)
    u = preparation_from_bell(1)
    worst_trace = 0.0
    worst_state = 0.0
    for c in _random_inputs(100):
        raw = alice_prepare(u, c)
        worst_trace = max(worst_trace, abs(float(np.trace(raw).real) - 0.25))
        expected = s3 @ s1 @ c.matrix() @ s1 @ s3
        worst_state = max(worst_state, float(np.max(np.abs(renormalize(raw) - expected))))
    ok = worst_trace < 1e-12 and worst_state < 1e-12
    _report(
        "first projective preparation",
        ok,
        f"worst |trace - 1/4| = {worst_trace:.2e}, worst renormalized residual "
        f"{worst_state:.2e} over 100 random inputs (tol 1e-12)",
    )


def test_criterion_5_transformation_matrix_and_norm():
    expected = np.array(
        [[0, 0, 0, 0.5], [0, 0, -0.5, 0], [0, -0.5, 0, 0], [0.5, 0, 0, 0]], dtype=complex
    )
    t = transformation_matrix(preparation_from_bell(1))
    exact = bool(np.array_equal(t, expected))
    worst_norm = 0.0
    for c in _random_inputs(100):
        tc = t @ c.as_vector()
        worst_norm = max(worst_norm, abs(complex(tc[0] + tc[3]) - 0.5))
    ok = exact and worst_norm < 1e-12
    _report(
        "coefficient transformation and its trace norm",
        ok,
        f"matrix exact: {exact}, worst |trace norm - 1/2| = {worst_norm:.2e} (tol 1e-12)",
    )


def test_criterion_6_lazy_receiver_bound():
    result = maximize_lazy_fidelity(100)
    max_ok = abs(result.value - 0.5) < 1e-6
    argmax_ok = (
        abs(result.argmax.c11 - 0.5) < 1e-6
        and abs(result.argmax.c22 - 0.5) < 1e-6
        and abs(result.argmax.c12) < 1e-6
    )
    pure_worst = max(
        abs(lazy_fidelity(CoefficientVector.from_components(c11, np.sqrt(c11 * (1 - c11)))))
        for c11 in np.linspace(0.0, 1.0, 101)
    )
    ok = max_ok and argmax_ok and pure_worst < 1e-12
    _report(
        "lazy receiver bound",
        ok,
        f"maximum {result.value:.9f} at c11 = {result.argmax.c11:.9f} (target 1/2 ± 1e-6), "
        f"pure-boundary worst |value| = {pure_worst:.2e} (tol 1e-12)",
    )


def test_criterion_7_automatic_teleportation():
    u = automatic_preparation()
    inputs = _random_inputs(1000, kind="pure")
    start = time.perf_counter()
    worst_state = 0.0
    worst_fidelity = 0.0
    bits = set()
    for c in inputs:
        record = run_session(c, u, ClassicalMessage.pre_agreed(), bob_acts=False)
        worst_state = max(worst_state, float(np.max(np.abs(record.bob_state - c.matrix()))))
        worst_fidelity = max(worst_fidelity, abs(record.fidelity - 1.0))
        bits.add(record.bits_sent)
    elapsed = time.perf_counter() - start
    ok = worst_state < 1e-12 and worst_fidelity < 1e-12 and bits == {0} and elapsed < 1.0
    _report(
        "automatic teleportation",
        ok,
        f"1000 pure inputs: worst state residual {worst_state:.2e}, worst |fidelity - 1| "
        f"{worst_fidelity:.2e}, bits sent {sorted(bits)}, runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_8_automatic_preparation_audit():
    p = automatic_preparation().matrix()
    factor = float((np.trace(p.conj().T @ (p @ p)) / np.trace(p.conj().T @ p)).real)
    norm = spectral_norm(p)
    spectrum = hermitian_spectrum(p)
    spectrum_residual = float(np.max(np.abs(spectrum - np.array([2.0, 0, 0, 0]))))
    ok = abs(factor - 2.0) < 1e-10 and abs(norm - 2.0) < 1e-10 and spectrum_residual < 1e-10
    _report(
        "automatic preparation audit",
        ok,
        f"squaring factor {factor:.12f}, norm {norm:.12f}, spectrum residual "
        f"{spectrum_residual:.2e} against {{2, 0, 0, 0}} (tol 1e-10); the spectrum is "
        "reported, not the +1/-1 pair that the squaring identity rules out",
    )


def test_criterion_9_update_convention_equivalence():
    worst_diff = 0.0
    worst_reference = 0.0
    worst_trace = 0.0
    inputs = _random_inputs(100)
    for i in BELL_INDICES:
        u = preparation_from_bell(i)
        for c in inputs:
            result = compare_conventions(u, c)
            worst_diff = max(worst_diff, result.max_abs_diff)
            # the comparison's states against the two separate 8x8 updates
            one_sided, two_sided = renormalize(alice_prepare(u, c)), prepare_sandwich(u, c)
            worst_reference = max(
                worst_reference,
                float(np.max(np.abs(result.ansatz - one_sided))),
                float(np.max(np.abs(result.sandwich - two_sided))),
            )
    u1 = preparation_from_bell(1)
    for c in inputs:
        numerator_trace = float(np.trace(sandwich_numerator(u1, c)).real)
        worst_trace = max(worst_trace, abs(numerator_trace - 0.25))
    ok = worst_diff < 1e-12 and worst_reference < 1e-12 and worst_trace < 1e-12
    _report(
        "update convention equivalence",
        ok,
        f"worst convention gap {worst_diff:.2e} over 4 preparations x 100 inputs, "
        f"worst gap to the 8x8 updates {worst_reference:.2e}, "
        f"worst |numerator trace - 1/4| = {worst_trace:.2e} (tol 1e-12)",
    )


def test_criterion_10_full_corrected_protocol():
    worst = 0.0
    inputs = _random_inputs(100, kind="pure")
    for i in BELL_INDICES:
        for c in inputs:
            record = run_session(c, i, ClassicalMessage.two_bits(i), bob_acts=True)
            worst = max(worst, abs(record.fidelity - 1.0))
    ok = worst < 1e-12
    _report(
        "full corrected protocol",
        ok,
        f"worst |fidelity - 1| = {worst:.2e} over 4 indices x 100 pure inputs (tol 1e-12)",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
