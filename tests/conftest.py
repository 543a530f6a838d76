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
    """numpy, its BLAS and the overlap path the import check chose: the golden digests depend on these kernels."""
    from ensemble_teleport import protocol

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        blas = "unknown"
    path = "fused columns" if protocol._FUSED_OVERLAPS else "stacked matmul only"
    return f"numpy {np.__version__}, BLAS {blas}; overlaps of {protocol._FUSED_MIN_ROWS}+ rows: {path}"


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
