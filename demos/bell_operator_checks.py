# Narrative check of the four Bell-type projectors:
#   * each is idempotent, unit-trace, Hermitian and positive
#   * distinct projectors annihilate each other
#   * together they resolve the identity on the two-qubit space
#   * every one of them fails the positive-partial-transpose test
#
# Dependencies: numpy and this package; console output only.

import numpy as np

from ensemble_teleport import (
    BELL_INDICES,
    bell_projector,
    bell_vector,
    hermitian_spectrum,
    partial_transpose,
    ppt_entangled,
)


def main():
    print("-" * 72)
    print("The Bell-type basis and its projectors")
    print("-" * 72)
    labels = {1: ("even", "+"), 2: ("even", "-"), 3: ("odd", "+"), 4: ("odd", "-")}
    for i in BELL_INDICES:
        v = bell_vector(*labels[i])
        print(f"vector {i} ({labels[i][0]}, {labels[i][1]}): {np.round(v.real, 6)}")

    print()
    print("projector algebra")
    print(f"{'i':>2} {'trace':>7} {'||P^2 - P||':>12} {'min eig':>9}")
    for i in BELL_INDICES:
        p = bell_projector(i)
        idem = np.max(np.abs(p @ p - p))
        print(
            f"{i:>2} {np.trace(p).real:>7.3f} {idem:>12.2e} "
            f"{hermitian_spectrum(p)[-1]:>9.2e}"
        )

    worst_cross = max(
        np.max(np.abs(bell_projector(i) @ bell_projector(j)))
        for i in BELL_INDICES
        for j in BELL_INDICES
        if i != j
    )
    completeness = np.max(np.abs(sum(bell_projector(i) for i in BELL_INDICES) - np.eye(4)))
    print(f"\nlargest cross product entry : {worst_cross:.2e}")
    print(f"completeness residual       : {completeness:.2e}")

    print()
    print("entanglement via the partial transpose")
    for i in BELL_INDICES:
        pt_min = hermitian_spectrum(partial_transpose(bell_projector(i)))[-1]
        verdict = "entangled" if ppt_entangled(bell_projector(i)) else "separable"
        print(f"projector {i}: min PT eigenvalue {pt_min:+.6f} -> {verdict}")

    print()
    print("a classical mixture stays separable, a diluted projector crosses over at weight 1/3:")
    for w in (0.25, 0.30, 1.0 / 3.0 + 1e-6, 0.40):
        state = w * bell_projector(1) + (1 - w) * np.eye(4) / 4
        verdict = "entangled" if ppt_entangled(state) else "separable"
        print(f"  weight {w:.6f}: {verdict}")


if __name__ == "__main__":
    main()
