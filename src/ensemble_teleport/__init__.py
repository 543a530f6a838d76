"""Density-operator simulation of qubit-ensemble teleportation.

A small numpy library covering the full pipeline: Bell-type projectors and
their algebra, assembly of the three-party state, sender preparations
(projective and general weight tensors, including the correction-free
automatic one), receiver corrections, two fidelity formulations with
Monte-Carlo averaging, and the comparison of one-sided versus two-sided
state-update conventions. A CLI (``ensemble-teleport``) exposes audits,
single sessions, and parameter sweeps.
"""

from .bell import (
    BELL_INDICES,
    bell_projector,
    bell_vector,
    matrix_unit,
    pauli,
    ppt_entangled,
)
from .conventions import (
    ConventionResult,
    compare_conventions,
    prepare_sandwich,
    sandwich_numerator,
)
from .fidelity import (
    AverageFidelity,
    FidelityReport,
    LazyFidelityMaximum,
    average_fidelity,
    fidelity_report,
    fidelity_trace,
    fidelity_vector,
    lazy_fidelity,
    maximize_lazy_fidelity,
    sample_mixed_uniform,
    sample_pure_uniform,
)
from .linalg import (
    NonHermitianError,
    hermitian_spectrum,
    partial_transpose,
    require_statistical_operator,
    spectral_norm,
)
from .protocol import (
    ClassicalMessage,
    CoefficientVector,
    PreparationTensor,
    SessionRecord,
    TotalStateDecomposition,
    alice_prepare,
    automatic_preparation,
    bloch_coefficient_rows,
    bob_correct,
    coefficient_rows,
    correction_unitary,
    decompose_total_state,
    preparation_from_bell,
    receiver_states,
    renormalize,
    resolve_preparation,
    run_session,
    total_state,
    transformation_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BELL_INDICES",
    "AverageFidelity",
    "ClassicalMessage",
    "CoefficientVector",
    "ConventionResult",
    "FidelityReport",
    "LazyFidelityMaximum",
    "NonHermitianError",
    "PreparationTensor",
    "SessionRecord",
    "TotalStateDecomposition",
    "alice_prepare",
    "automatic_preparation",
    "average_fidelity",
    "bell_projector",
    "bell_vector",
    "bloch_coefficient_rows",
    "bob_correct",
    "coefficient_rows",
    "compare_conventions",
    "correction_unitary",
    "decompose_total_state",
    "fidelity_report",
    "fidelity_trace",
    "fidelity_vector",
    "hermitian_spectrum",
    "lazy_fidelity",
    "matrix_unit",
    "maximize_lazy_fidelity",
    "partial_transpose",
    "pauli",
    "ppt_entangled",
    "prepare_sandwich",
    "preparation_from_bell",
    "receiver_states",
    "renormalize",
    "require_statistical_operator",
    "resolve_preparation",
    "run_session",
    "sample_mixed_uniform",
    "sample_pure_uniform",
    "sandwich_numerator",
    "spectral_norm",
    "total_state",
    "transformation_matrix",
]
