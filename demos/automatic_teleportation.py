# The correction-free preparation.
#
# One special sender operation makes the coefficient transformation the
# identity: after the sender acts and the receiver marginal is renormalized,
# the receiver already holds the input coefficients. No index needs to be
# transmitted and nothing needs to be done on the receiving side; at most a
# single pre-agreed ping says "it happened". The price is that the operator
# is not a projection (it squares to twice itself, norm 2), which is what the
# audit below makes quantitative.

import numpy as np

from ensemble_teleport import (
    ClassicalMessage,
    automatic_preparation,
    average_fidelity,
    hermitian_spectrum,
    run_session,
    sample_pure_uniform,
    sample_mixed_uniform,
    spectral_norm,
    transformation_matrix,
)


def main():
    u = automatic_preparation()
    p = u.matrix()

    print("-" * 72)
    print("the operator itself")
    print("-" * 72)
    print(np.round(p.real, 3))
    print(f"trace                : {np.trace(p).real:.1f}")
    print(f"self-adjoint residual: {np.max(np.abs(p - p.conj().T)):.1e}")
    print(f"squares to           : {np.max(np.abs(p @ p - 2 * p)):.1e} residual against 2P")
    print(f"spectrum             : {np.round(hermitian_spectrum(p), 12)}")
    print(f"spectral norm        : {spectral_norm(p):.12f}")
    print(f"diagonal weight sum  : {u.diagonal_weight():.1f} (projective preparations give 1)")
    print("coefficient map:")
    print(np.round(transformation_matrix(u).real, 3))

    print()
    print("sessions with zero transmitted bits")
    print("-" * 72)
    rng = np.random.default_rng(2024)
    print(f"{'input':>28} {'bits':>5} {'fidelity':>12} {'state residual':>15}")
    for _ in range(5):
        c = sample_pure_uniform(rng)
        record = run_session(c, u, ClassicalMessage.pre_agreed(), bob_acts=False)
        residual = np.max(np.abs(record.bob_state - c.matrix()))
        label = f"c11={c.c11:.3f}, c12={c.c12:.3f}"
        print(f"{label:>28} {record.bits_sent:>5} {record.fidelity:>12.9f} {residual:>15.2e}")

    print()
    print("averages over input ensembles (fixed seeds)")
    for sampler in ("pure_uniform", "mixed_uniform"):
        stats = average_fidelity(u, bob_acts=False, sampler=sampler, n=500, seed=7)
        print(f"  {sampler:>13}: mean {stats.mean:.12f} +- {stats.stderr:.1e}")
    print("\nfor comparison, a mixed input is recovered exactly as an operator, but its")
    print("self-overlap is its purity, so only the pure average sits at 1:")
    c = sample_mixed_uniform(np.random.default_rng(99))
    record = run_session(c, u, ClassicalMessage.pre_agreed(), bob_acts=False)
    purity = float(np.trace(c.matrix() @ c.matrix()).real)
    print(f"  state residual {np.max(np.abs(record.bob_state - c.matrix())):.2e}, "
          f"fidelity {record.fidelity:.6f}, input purity {purity:.6f}")


if __name__ == "__main__":
    main()
