import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ensemble_teleport import CoefficientVector, sample_mixed_uniform, sample_pure_uniform
from ensemble_teleport.linalg import ON_NUMBERS

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def pytest_report_header(config):
    """numpy and its BLAS: the golden digests depend on their map products and divisions."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_coefficients(rng, n, kind="mixed"):
    """n valid coefficient vectors drawn from the Bloch ball or sphere."""
    draw = sample_pure_uniform if kind == "pure" else sample_mixed_uniform
    return [draw(rng) for _ in range(n)]


def exact_quantities(table, columns) -> np.ndarray:
    """The quantities of ``table`` on each row of ``columns`` as ``require`` evaluates them, an (N, entries) array.

    ``columns`` holds the table's parts as N-long columns; each row is
    ``table(ON_NUMBERS, row)`` on the row's Python numbers, the one exact
    evaluation of the check tables. No rows give an empty 1-d array.
    """
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return np.array([[quantity for quantity, _, _ in table(ON_NUMBERS, row)] for row in rows], dtype=float)


def random_state(rng, n):
    """A seeded full-rank n x n density matrix: g g^dagger over its trace, g with Gaussian complex entries."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def base_chain(array) -> list:
    """``array`` and every ndarray along its ``.base`` chain, which a non-array buffer such as bytes ends."""
    chain = []
    while isinstance(array, np.ndarray):
        chain.append(array)
        array = array.base
    return chain


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


@pytest.fixture
def coefficient_samples(rng):
    return random_coefficients(rng, 100)


def bloch_coefficients(x, y, z):
    return CoefficientVector.from_bloch(x, y, z)


def bloch_coefficient_strategy():
    """Valid coefficient vectors via Bloch-ball coordinates."""
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    radius = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

    def build(raw):
        x, y, z, r = raw
        length = np.sqrt(x * x + y * y + z * z)
        if length < 1e-9:
            return CoefficientVector.from_components(0.5)
        scale = r / length
        return CoefficientVector.from_bloch(x * scale, y * scale, z * scale)

    return st.tuples(unit, unit, unit, radius).map(build)
