"""The golden digests under the BLAS and numpy kernels of other CPUs.

The golden CLI and demo digests were taken with AVX-512 kernels. One
subprocess per configuration renders every ``test_cli.GOLDEN`` command
through ``cli.main`` and runs every demo through ``runpy``, and returns the
sha256 of each stdout; every digest must hold. The configurations are
``OPENBLAS_CORETYPE=Haswell``, the BLAS kernel an AVX2-only CPU gets, and a
pre-AVX2 CPU: ``OPENBLAS_CORETYPE=Nehalem`` with numpy's AVX2 and AVX-512
loops switched off, so that its complex product is not fused either.

The same subprocess compares the one-row session kernel, ``_session_row``,
with row 0 of a two-row ``receiver_states`` batch, byte for byte, on the
nine known session maps and 20 dense ones.

It also takes the library digests of ``tests/test_library_digests.py`` on
the inputs this process built, sent as pickled arrays. Not all of them are
the same bits on every CPU, so each configuration has its own record,
``LIBRARY_DIGESTS``, which a change may not move either:

- every eigenvalue (``hermitian_spectrum``, ``_ppt_test``) comes from
  LAPACK on the BLAS core's kernels;
- a dense map's product is a zgemv or zgemm on those kernels
  (``compare_conventions`` on a general tensor, ``run_session``,
  ``receiver_states`` and ``average_fidelity`` on a dense map);
- numpy's complex halving without FMA gives +0.0 where the fused one gives
  -0.0 on a coherence whose real part is -1e-323, under a known map too.

Haswell keeps the digests of ``run_session``, ``receiver_states``,
``average_fidelity`` and ``fidelity_vector``, and Nehalem only that of
``fidelity_vector``.

The test needs a numpy whose BLAS is a DYNAMIC_ARCH OpenBLAS (the only kind
the variable switches), and the Haswell case a CPU with AVX2 and FMA (which
its kernels use); elsewhere they are skipped.
"""

import base64
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ensemble_teleport import automatic_preparation, resolve_preparation
from test_cli import GOLDEN
from test_demos import DEMOS, ROOT, STDOUT_SHA256
from test_library_digests import LIBRARY_GOLDEN, library_inputs
from test_conventions import signed_zero_rows, subnormal_rows
from test_receiver_state import general_tensor, special_rows

# The key under which the subprocess reports the one-row kernel against row 0 of a two-row batch.
SESSION_ROWS = "one-row sessions"
# Maps of the one-row comparison: the nine known (preparation, bob_acts) session maps and 20 dense PSD ones.
SESSION_MAPS = {
    **{f"Bell {k}, bob_acts={acts}": resolve_preparation(k).session_map(acts) for k in range(1, 5) for acts in (True, False)},
    "automatic": resolve_preparation(automatic_preparation()).session_map(False),
    **{f"dense PSD {seed}": general_tensor(100 + seed, psd=True).session_map(False) for seed in range(20)},
}


def session_rows(seed: int) -> np.ndarray:
    """Rows of one map's comparison: 350 seeded rows of special parts, then valid inputs with signed-zero and subnormal coherences."""
    return np.concatenate([special_rows(seed, 350), subnormal_rows(), signed_zero_rows()])


def session_payload() -> dict:
    """{name: [map, rows]} as real and imaginary parts for JSON, which keeps signed zeros, subnormals, inf and NaN."""
    return {
        name: [t.view(float).ravel().tolist(), session_rows(seed).view(float).ravel().tolist()]
        for seed, (name, t) in enumerate(SESSION_MAPS.items())
    }


# The key under which the subprocess reports the library digests.
LIBRARY = "library"

# Each configuration's library digests where they differ from LIBRARY_GOLDEN (see the module docstring).
LIBRARY_DIGESTS = {
    "Haswell": {
        "compare_conventions": "5d4ee6dcfa1ccc02756554638c1d17c2ea9af17cce3eb48bc07d999f0aee6360",
        "hermitian_spectrum": "417bb6c58cd190e92133318c5d65460de671b5b743105eab90f37cf249d60cb6",
        "_ppt_test": "baa8383553554790daaa929aa2ad4f9426661e388e1a6e51eea1fd8da5e530ad",
    },
    "Nehalem": {
        "run_session": "33574c774a083e7e8b0507b4e6b3ee3ce874535ca2ffb49b830ea04b5be777d9",
        "receiver_states": "ed2bc6b2c2d1ea81f54336b8055839f8c25c77d7cf98c2289655859d9b7f0972",
        "compare_conventions": "4338c68b421fd8dde6d7c2e2abb353099f14cde38ff14cf270254de08e962457",
        "average_fidelity": "74687078d33a141efdabdfe515515283ace2f2f0f5bac46aec3187e4f8bb400c",
        "hermitian_spectrum": "8a48c74e84d812391d3ed26f67016f6745a31d30272cd1f9533bfd4cb74f2574",
        "_ppt_test": "5523f65a178438ebd6d34441062e74a88966d56fa1a47947185b9943881f972f",
    },
}

# Run in the subprocess: reads [commands, demo paths, {session map: [map, rows]}, pickled library inputs] as JSON
# on stdin, writes {name: sha256}, under SESSION_ROWS the sessions whose one-row kernel differs from their batch
# and under LIBRARY the library digests, as JSON.
_RENDER_ALL = """
import base64, contextlib, hashlib, io, json, pickle, runpy, sys
import numpy as np
from ensemble_teleport import cli
from ensemble_teleport.protocol import _session_row, receiver_states
from test_library_digests import library_digests

def digest(run):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run()
    return hashlib.sha256(out.getvalue().encode()).hexdigest()

def bits(kernel, t, rows):
    try:
        states, fidelities = kernel(t, rows)
    except ValueError as error:
        return str(error)
    return (np.asarray(states).reshape(-1, 2, 2)[0].tobytes(), np.float64(np.ravel(fidelities)[0]).tobytes())

def complex_parts(parts, shape):
    return np.array(parts).view(complex).reshape(shape)

commands, demos, sessions, library = json.load(sys.stdin)
digests = {command: digest(lambda: cli.main(command.split())) for command in commands}
digests.update({path: digest(lambda: runpy.run_path(path, run_name="__main__")) for path in demos})
differ, valid = [], 0
for name, (t, rows) in sessions.items():
    t = complex_parts(t, (4, 4))
    for i, row in enumerate(complex_parts(rows, (-1, 4))):
        one = bits(_session_row, t, row[None])
        valid += not isinstance(one, str)
        if one != bits(receiver_states, t, np.array([row, row])):
            differ.append([name, i])
digests["%s"] = {"rows": sum(len(rows) // 8 for _, rows in sessions.values()), "valid": valid, "differ": differ}
digests["%s"] = library_digests(pickle.loads(base64.b64decode(library)))
json.dump(digests, sys.stdout)
""" % (SESSION_ROWS, LIBRARY)


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        return False
    return "openblas" in str(blas.get("name")) and "DYNAMIC_ARCH" in str(blas.get("openblas configuration"))


def _cpu_flags() -> set:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return {flag for line in lines if line.startswith("flags") for flag in line.partition(":")[2].split()}


pytestmark = pytest.mark.skipif(not _dynamic_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS")

# (environment, CPU flags its kernels need) of each configuration
CONFIGURATIONS = {
    "Haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, {"avx2", "fma"}),
    "Nehalem": ({"OPENBLAS_CORETYPE": "Nehalem", "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}, set()),
}

# (name, golden digest, what the subprocess reports it under)
CASES = [(command, digest, command) for command, digest in sorted(GOLDEN.items())] + [
    (f"demo {path.stem}", STDOUT_SHA256[path.stem], str(path)) for path in DEMOS
]


@pytest.fixture(scope="module", params=sorted(CONFIGURATIONS))
def digests(request):
    env, flags = CONFIGURATIONS[request.param]
    if not flags <= _cpu_flags():
        pytest.skip(f"the {request.param} kernels need a CPU with {sorted(flags)}")
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]))
    library = base64.b64encode(pickle.dumps(library_inputs())).decode()
    result = subprocess.run(
        [sys.executable, "-c", _RENDER_ALL],
        input=json.dumps([sorted(GOLDEN), [str(path) for path in DEMOS], session_payload(), library]),
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=pythonpath, **env),
    )
    assert result.returncode == 0, result.stderr
    return request.param, json.loads(result.stdout)


@pytest.mark.parametrize("name, golden, key", [pytest.param(*case, id=case[0]) for case in CASES])
def test_golden_digest_under_other_kernels(digests, name, golden, key):
    assert digests[1][key] == golden


@pytest.mark.parametrize("name", sorted(LIBRARY_GOLDEN))
def test_library_digest_under_other_kernels(digests, name):
    configuration, got = digests
    assert got[LIBRARY][name] == LIBRARY_DIGESTS[configuration].get(name, LIBRARY_GOLDEN[name])


def test_one_row_session_is_row_0_of_its_batch_under_other_kernels(digests):
    # _session_row's arithmetic on Python numbers against the batch's on columns, on rows of signed zeros and subnormals
    rows = digests[1][SESSION_ROWS]
    assert rows["differ"] == []
    assert rows["rows"] == sum(len(session_rows(seed)) for seed in range(len(SESSION_MAPS)))
    assert 0 < rows["valid"] < rows["rows"]
