"""Which golden digests hold when OpenBLAS runs its Haswell kernels (ROADMAP item 2).

The golden CLI and demo digests were taken with an AVX-512 BLAS kernel. One
subprocess with ``OPENBLAS_CORETYPE=Haswell``, the kernel an AVX2-only CPU
gets, renders every ``test_cli.GOLDEN`` command through ``cli.main`` and
runs every demo through ``runpy``, and returns the sha256 of each stdout.
The digests that differ under that kernel are strict xfails, so the change
that makes them hold has to move them out of ``DIFFER``.

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

from test_cli import GOLDEN
from test_demos import DEMOS, ROOT, STDOUT_SHA256

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

# Run in the subprocess: reads [commands, demo paths] as JSON on stdin, writes {name: sha256} as JSON.
_RENDER_ALL = """
import contextlib, hashlib, io, json, runpy, sys
from ensemble_teleport import cli

def digest(run):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run()
    return hashlib.sha256(out.getvalue().encode()).hexdigest()

commands, demos = json.load(sys.stdin)
digests = {command: digest(lambda: cli.main(command.split())) for command in commands}
digests.update({path: digest(lambda: runpy.run_path(path, run_name="__main__")) for path in demos})
json.dump(digests, sys.stdout)
"""


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
        input=json.dumps([sorted(GOLDEN), [str(path) for path in DEMOS]]),
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
