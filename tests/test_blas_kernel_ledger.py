"""Which golden digests hold when OpenBLAS runs its Haswell kernels (ROADMAP item 2).

The golden CLI and demo digests were taken with an AVX-512 BLAS kernel. One
subprocess with ``OPENBLAS_CORETYPE=Haswell``, the kernel an AVX2-only CPU
gets, renders every ``test_cli.GOLDEN`` command through ``cli.main`` and
runs every demo through ``runpy``, and returns the sha256 of each stdout.
The digests that differ under that kernel are strict xfails, so the change
that makes them hold has to move them out of ``DIFFER``.

The same subprocess compares the one-row session kernel, ``_session_row``,
with row 0 of a two-row ``receiver_states`` batch, byte for byte, on the
nine known session maps and 20 dense ones.

The test needs a numpy whose BLAS is a DYNAMIC_ARCH OpenBLAS (the only kind
the variable switches) and a CPU with AVX2 and FMA (which the Haswell
kernels use); elsewhere it is skipped.
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

# The golden digests that differ under the Haswell kernels: the overlaps of
# a batch and the vector-form fidelity round differently there.
DIFFER = {
    *(f"teleport --c11 0.3 --c12re 0.458 --prep bell2 --format {fmt}" for fmt in ("table", "csv", "json")),
    "sweep --resolution 5 --mag-resolution 3 --phase-resolution 2 --format table",
    "sweep --resolution 5 --mag-resolution 3 --phase-resolution 2 --format csv",
    "sweep --resolution 5 --mag-resolution 3 --phase-resolution 2 --format json",
    "sweep --resolution 30 --phase-resolution 4 --prep bell1 --format csv",
    "sweep --resolution 30 --phase-resolution 4 --prep paut --format csv",
    "sweep --resolution 30 --phase-resolution 4 --prep bell1 --format table",
    "sweep --resolution 30 --phase-resolution 4 --prep paut --format json",
    "sweep --resolution 21 --slice pure --phase-resolution 3 --format json",
    "sweep --resolution 12 --mag-resolution 5 --phase-resolution 3 --format table",
    "demo automatic_teleportation",
}

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


pytestmark = pytest.mark.skipif(
    not _dynamic_openblas() or not {"avx2", "fma"} <= _cpu_flags(),
    reason="needs a DYNAMIC_ARCH OpenBLAS and a CPU with AVX2 and FMA",
)

# (name, golden digest, what the subprocess reports it under)
CASES = [(command, digest, command) for command, digest in sorted(GOLDEN.items())] + [
    (f"demo {path.stem}", STDOUT_SHA256[path.stem], str(path)) for path in DEMOS
]


@pytest.fixture(scope="module")
def haswell_digests():
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _RENDER_ALL],
        input=json.dumps([sorted(GOLDEN), [str(path) for path in DEMOS], session_payload()]),
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_CORETYPE="Haswell"),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize(
    "name, golden, key",
    [
        pytest.param(
            *case, id=case[0],
            marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 2")] if case[0] in DIFFER else [],
        )
        for case in CASES
    ],
)
def test_golden_digest_under_haswell_kernels(haswell_digests, name, golden, key):
    assert haswell_digests[key] == golden


def test_one_row_session_is_row_0_of_its_batch_under_haswell_kernels(haswell_digests):
    # _session_row's products (ndarray.dot) against the batch's stacked matmuls, on rows of signed zeros and subnormals
    rows = haswell_digests[SESSION_ROWS]
    assert rows["differ"] == []
    assert rows["rows"] == sum(len(session_rows(seed)) for seed in range(len(SESSION_MAPS)))
    assert 0 < rows["valid"] < rows["rows"]
