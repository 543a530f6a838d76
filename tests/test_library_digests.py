"""Golden digests of the library: one sha256 per function over its values and its error messages.

Each function runs on fixed seeded inputs, and its digest takes the bits of
every value it returns and the text of every ValueError it raises. A change
that claims to move no output bit keeps every digest; a change that moves
bits on purpose updates the digests it moves and says why. The inputs come
from the tests' own generators: ``special_rows``' valid odd rows, which put
signed zeros, subnormals and tiny parts into valid pairs, and the
signed-zero and subnormal inputs of the convention tests.
``tests/test_blas_kernel_ledger.py`` checks the same digests under the BLAS
and numpy kernels of other CPUs.
"""

import hashlib
from functools import cache

import numpy as np
import pytest

from ensemble_teleport import (
    ClassicalMessage,
    CoefficientVector,
    PreparationTensor,
    automatic_preparation,
    average_fidelity,
    compare_conventions,
    fidelity_vector,
    hermitian_spectrum,
    receiver_states,
    resolve_preparation,
    run_session,
)
from ensemble_teleport.bell import _ppt_test
from test_conventions import signed_zero_rows, subnormal_rows
from test_receiver_state import general_tensor, special_rows

BATCH_SIZES = (1, 2, 63, 64, 65, 4097)


def _vector(row) -> CoefficientVector | str:
    """The CoefficientVector of a coefficient row, or its constructor's message."""
    return outcome(CoefficientVector, row[0].real, row[1], row[2], row[3].real)


def valid_rows(n: int) -> np.ndarray:
    """n valid coefficient rows: ``special_rows``' odd rows that pass the constructor, in their drawn order."""
    rows = np.array([row for row in special_rows(5, 3 * n)[1::2] if not isinstance(_vector(row), str)])
    assert len(rows) >= n
    return rows[:n]


def _density_matrices(rng, n: int, count: int) -> list:
    """count seeded n x n density matrices of every rank, then one with a NaN entry and one non-Hermitian one."""
    ops = []
    for k in range(count):
        g = rng.normal(size=(n, 1 + k % n)) + 1j * rng.normal(size=(n, 1 + k % n))
        rho = g @ g.conj().T
        ops.append(rho / np.trace(rho).real)
    return ops + [np.full((n, n), np.nan), ops[0] + np.triu(np.full((n, n), 1e-6), 1)]


def _rotated_werner_states(rng) -> list:
    """Werner states of the singlet at 41 weights, each under a seeded unitary on its first qubit."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    states = []
    for p in np.linspace(0.0, 1.0, 41):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rotation = np.kron(q, np.eye(2))
        states.append(rotation @ (p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0) @ rotation.conj().T)
    return states


@cache
def library_inputs() -> dict:
    """Every input as arrays and Python numbers, built once on this process's kernels.

    A preparation is a Bell index or the weights and flag of a tensor: the
    automatic one, three dense PSD ones and one indefinite one. The one-input
    functions take ``vector rows``: 200 valid rows, the signed-zero inputs and
    a quarter of the subnormal ones.
    """
    rng = np.random.default_rng(31)
    tensors = [automatic_preparation()] + [general_tensor(seed, psd=True) for seed in (21, 22, 23)]
    tensors.append(general_tensor(24, psd=False))
    session_maps = [resolve_preparation(k).session_map(acts) for k in range(1, 5) for acts in (True, False)]
    session_maps += [automatic_preparation().session_map(False), general_tensor(25, psd=True).session_map(False)]
    rows = valid_rows(max(BATCH_SIZES))
    fidelity_maps = [t.coefficient_map for t in tensors] + session_maps
    fidelity_maps += [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(4)]
    return {
        "preparations": [1, 2, 3, 4] + [(t.u, t.normalized) for t in tensors],
        "batch rows": rows,
        "failing rows": special_rows(7, 2 * len(BATCH_SIZES) * len(session_maps))[::2],  # NaN, Inf, huge and tiny parts
        "vector rows": np.concatenate([rows[:200], signed_zero_rows(), subnormal_rows()[::4]]),
        "session maps": session_maps,
        "fidelity maps": fidelity_maps + [np.zeros((4, 4)), np.full((4, 4), np.nan)],
        "operators": [op for n in (2, 4, 8) for op in _density_matrices(rng, n, 40)],
        "two-qubit states": _rotated_werner_states(rng) + _density_matrices(rng, 4, 60),
    }


def outcome(f, *args):
    """f's result, or the class and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def digest(outcomes) -> str:
    """sha256 over outcomes, each a message, a value or a tuple of values: a message by its text, a value by its array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for value in outcomes:
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, str):
                h.update(b"message " + part.encode())
            else:
                part = np.asarray(part)
                h.update(f"{part.dtype.str}{part.shape}".encode() + part.tobytes())
    return h.hexdigest()


def _preparations(inputs) -> list:
    return [p if isinstance(p, int) else PreparationTensor(u=p[0], normalized=p[1]) for p in inputs["preparations"]]


def _run_session_outcomes(inputs):
    vectors = [_vector(row) for row in inputs["vector rows"]]
    preparations = _preparations(inputs)
    for prep in preparations:
        index = resolve_preparation(prep).bell_index
        message = ClassicalMessage.pre_agreed() if index is None else ClassicalMessage.two_bits(index)
        for bob_acts in (True, False):
            for c in vectors:
                record = outcome(run_session, c, prep, message, bob_acts)
                yield record if isinstance(record, str) else (record.bob_state, record.fidelity, record.bits_sent)
    yield outcome(run_session, vectors[0], 1, ClassicalMessage.two_bits(2), True)  # the message names another preparation


def _receiver_states_outcomes(inputs):
    failing = iter(inputs["failing rows"])
    for shift, t in enumerate(inputs["session maps"]):
        pool = np.roll(inputs["batch rows"], 409 * shift, axis=0)
        for n in BATCH_SIZES:
            rows = pool[:n]
            yield outcome(receiver_states, t, rows)
            broken = rows.copy()
            broken[n // 2] = next(failing)
            yield outcome(receiver_states, t, broken)


def _compare_conventions_outcomes(inputs):
    vectors = [_vector(row) for row in inputs["vector rows"][::3]]
    for prep in _preparations(inputs):
        for c in vectors:
            result = outcome(compare_conventions, prep, c)
            yield result if isinstance(result, str) else (
                result.ansatz, result.sandwich, result.max_abs_diff, result.prenorm_ratio
            )


def _average_fidelity_outcomes(inputs):
    for prep in _preparations(inputs):
        for bob_acts in (True, False):
            for sampler in ("pure_uniform", "mixed_uniform"):
                for n, seed in ((100, 0), (1000, 3), (4097, 11)):
                    yield outcome(average_fidelity, prep, bob_acts, sampler, n, seed)
    yield outcome(average_fidelity, 1, True, "pure_uniform", 99)
    yield outcome(average_fidelity, 1, True, "cube", 100)


def _fidelity_vector_outcomes(inputs):
    vectors = [_vector(row) for row in inputs["vector rows"][::3]]
    for t in inputs["fidelity maps"]:
        for c in vectors:
            yield outcome(fidelity_vector, c, t)


def _hermitian_spectrum_outcomes(inputs):
    for op in inputs["operators"]:
        yield outcome(hermitian_spectrum, op)
        yield outcome(hermitian_spectrum, op - np.trace(op) * np.eye(len(op)))  # indefinite
    yield outcome(hermitian_spectrum, np.eye(3))


def _ppt_test_outcomes(inputs):
    for op in inputs["two-qubit states"]:
        yield outcome(_ppt_test, op)
    yield outcome(_ppt_test, np.diag([1.5, -0.5, 0.0, 0.0]))
    yield outcome(_ppt_test, np.eye(4) / 2.0)


FUNCTIONS = {
    "run_session": _run_session_outcomes,
    "receiver_states": _receiver_states_outcomes,
    "compare_conventions": _compare_conventions_outcomes,
    "average_fidelity": _average_fidelity_outcomes,
    "fidelity_vector": _fidelity_vector_outcomes,
    "hermitian_spectrum": _hermitian_spectrum_outcomes,
    "_ppt_test": _ppt_test_outcomes,
}


def library_digests(inputs: dict) -> dict:
    """{function: sha256 of its outcomes on ``inputs``}."""
    return {name: digest(outcomes(inputs)) for name, outcomes in FUNCTIONS.items()}


LIBRARY_GOLDEN = {
    "run_session": "d6230d06385e50c3ebe16c575b8e6d6cdef0c315fc8a47aa08697afbd6ad4db9",
    "receiver_states": "023af51a348be6d5f648ccd29baa85ab0fcebb1bbea49a2a316247a9cded19e1",
    "compare_conventions": "5080cc3d330999d8f6c2a49d111ecc56efe13816d676c26c5ced71edf58d9a8f",
    "average_fidelity": "497dcf331238a74d6b3032173001ac3e593649140fd693eef5f7ccd0601fa0a0",
    "fidelity_vector": "e74be53c2325c2ad3d0d67253a76473b29ce2bc5976c616da480f5d9b0a0bcff",
    "hermitian_spectrum": "64c67464deebddfe31e6fd687032b1e39efb92af929f8358eb26a6976f59ce85",
    "_ppt_test": "f8720d1807ed4289ecf4c1df1d706ae1cb80a70a2cb4bdb25f3340f128c18406",
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_library_digest(name):
    assert digest(FUNCTIONS[name](library_inputs())) == LIBRARY_GOLDEN[name]
