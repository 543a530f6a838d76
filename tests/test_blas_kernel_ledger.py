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

The test needs a numpy whose BLAS is a DYNAMIC_ARCH OpenBLAS (the only kind
the variable switches), and the Haswell case a CPU with AVX2 and FMA (which
its kernels use); elsewhere they are skipped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ensemble_teleport import automatic_preparation, resolve_preparation
from test_cli import GOLDEN
from test_demos import DEMOS, ROOT, STDOUT_SHA256
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


# Run in the subprocess: reads [commands, demo paths, {session map: [map, rows]}] as JSON on stdin, writes
# {name: sha256} and, under SESSION_ROWS, the sessions whose one-row kernel differs from their batch, as JSON.
_RENDER_ALL = """
import contextlib, hashlib, io, json, runpy, sys
import numpy as np
from ensemble_teleport import cli
from ensemble_teleport.protocol import _session_row, receiver_states

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

commands, demos, sessions = json.load(sys.stdin)
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
json.dump(digests, sys.stdout)
""" % SESSION_ROWS


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
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _RENDER_ALL],
        input=json.dumps([sorted(GOLDEN), [str(path) for path in DEMOS], session_payload()]),
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=pythonpath, **env),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("name, golden, key", [pytest.param(*case, id=case[0]) for case in CASES])
def test_golden_digest_under_other_kernels(digests, name, golden, key):
    assert digests[key] == golden


def test_one_row_session_is_row_0_of_its_batch_under_other_kernels(digests):
    # _session_row's arithmetic on Python numbers against the batch's on columns, on rows of signed zeros and subnormals
    rows = digests[SESSION_ROWS]
    assert rows["differ"] == []
    assert rows["rows"] == sum(len(session_rows(seed)) for seed in range(len(SESSION_MAPS)))
    assert 0 < rows["valid"] < rows["rows"]
