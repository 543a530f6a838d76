"""Every demo script runs to completion and prints its walkthrough, byte for byte."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout. A change that is meant to alter a demo's
# output updates its digest here and says why.
STDOUT_SHA256 = {
    "automatic_teleportation": "2ee5719d3092c9e190052e7c2874efb43a1624306381749a373fa0058d9ad559",
    "bell_operator_checks": "9b2c9c4bfbe3f877cf1c9b9ef6221bfa0cb2245adf910f8869cd7abd4e660a60",
    "lazy_receiver_bound": "c8151f3ef1817c558cded2efc94ec357c648f5ac2ba9898963ed76acf326c790",
    "two_bit_teleportation": "4d6f1197a772bbf8b5b36afbc335bab05f8311d54604a274683a8c420013425c",
    "update_conventions": "cf8be505fb70de690dccd73faba37586e55e048897158e98bdec1a93eba757c8",
}


def test_all_five_demos_are_collected():
    assert sorted(path.stem for path in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.strip()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
