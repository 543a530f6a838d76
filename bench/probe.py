"""Set-up probe: import the package in a fresh interpreter and make one call of a workload.

The call replays the pool entry at the workload's ``probe_index``: its first
entry whose result is valid, so a fix that makes invalid inputs raise does
not stop the probe.

Run by ``run.py`` as ``python3 bench/probe.py '<json spec>'``. Nothing but the
standard library is imported before the clock starts, so numpy's import is
part of the measured set-up, as it is for a user of the CLI. Prints one JSON
line: the elapsed seconds, the calibration kernel's time measured after the
clock stopped (``run.py`` scales the elapsed time by it), and the call's
result, which ``run.py`` compares with the same call made in its own process.
"""

import hashlib
import json
import sys
import time


def _matrix(pair):
    import numpy as np

    return np.array(pair[0]) + 1j * np.array(pair[1])


def _as_json(a):
    import numpy as np

    a = np.asarray(a)
    return [a.real.tolist(), a.imag.tolist()]


def sessions(et, cli, spec):
    c = et.CoefficientVector.from_bloch(*spec["bloch"])
    kind = spec["kind"]
    if kind == "automatic":
        prep, message = et.automatic_preparation(), et.ClassicalMessage.pre_agreed()
    elif kind == "bell_int":
        prep, message = spec["index"], et.ClassicalMessage.two_bits(spec["index"])
    elif kind == "bell_tensor":
        prep, message = et.preparation_from_bell(spec["index"]), et.ClassicalMessage.two_bits(spec["index"])
    elif kind == "lazy":
        prep, message = et.preparation_from_bell(1), et.ClassicalMessage.ping()
    else:
        prep, message = et.PreparationTensor(u=_matrix(spec["u"]), normalized=True), et.ClassicalMessage.pre_agreed()
    record = et.run_session(c, prep, message, spec["bob_acts"])
    return [record.fidelity, _as_json(record.bob_state)]


def monte_carlo(et, cli, spec):
    prep = et.automatic_preparation() if spec["prep"] is None else spec["prep"]
    result = et.average_fidelity(prep, spec["bob_acts"], sampler=spec["sampler"], n=spec["n"], seed=spec["seed"])
    return [float(result[0]), float(result[1])]


def sweep_csv(et, cli, spec):
    if cli.main(spec["argv"]) != 0:
        raise SystemExit("sweep failed")
    with open(spec["argv"][-1], "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def audit(et, cli, spec):
    return bool(et.ppt_entangled(_matrix(spec["op"])))


def main() -> None:
    request = json.loads(sys.argv[1])
    start = time.perf_counter()
    sys.path.insert(0, request["src"])
    import ensemble_teleport as et
    from ensemble_teleport import cli

    result = globals()[request["workload"]](et, cli, request["spec"])
    elapsed = time.perf_counter() - start
    from run import calibrate

    print(json.dumps({"elapsed_s": elapsed, "kernel_ns": calibrate(12), "result": result}))


if __name__ == "__main__":
    main()
