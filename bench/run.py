"""Closed-loop benchmark of the ensemble-teleport pipeline.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. One process, one client, no extra threads:
each call into the library starts only after the previous one returned and
was checked against an independent reference (see ``workloads.py``). Every
input is generated from ``--seed`` before timing starts.

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json:
throughput and median call time over ``--seconds`` of calls after a
discarded warm-up, set-up time as the median of several fresh interpreters
that import the package and make one valid call of the workload, peak resident
memory, and ``ok_frac``, the share of calls that neither failed nor
returned where they must raise (one minus ``failed_frac``, which is also
printed). The three times are
scaled to a reference machine speed measured by a calibration kernel run
between segments of calls (see CAL_REF_NS); the raw times and the measured
slowdown are printed and recorded next to them. ``--trace 1`` runs a
fixed amount of work twice, untraced and then with every public function of
the package wrapped from outside (``tracing.py``), and reports the per-layer
metrics. The last line of standard output is one JSON object; the lines
before it are a readable report and the run metadata. Spans and the full
layer table are written under ``.bench_out/`` in the checkout.

``failed`` counts calls that returned a value that misses its reference or
raised where the reference says the result is valid; any such call makes
``correct`` false. A call that returns where the reference says it must
raise (the missing positivity check on general preparation tensors) is not
in ``failed``: its numbers equal the reference, the validation is what is
missing. It is counted as ``missing_raise``, lowers ``ok_frac`` and is
reported per layer as ``protocol.run_session.missing_raise``.

The machine cannot be pinned or quietened, so spreads are always reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent

# Single-threaded BLAS: the operators are at most 8x8, and a shared machine
# gives steadier timings without an idle thread pool.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_PROBES = 5
RESERVOIR = 20000
# Speed calibration. The shared machine drifts between speed regimes that
# last from tens of milliseconds to minutes and change call times by up to
# 2.5x. A fixed kernel of small numpy and interpreter work, run between
# segments of calls, tracks that drift: the ratio of call time to kernel
# time stayed within about 5% while raw call times doubled. Segments are
# short because the speed also changes within a second: over 10-second
# windows of sub-millisecond calls, the scaled median call time spread 2.2%
# with 20 ms segments and 4.9% with 100 ms ones. End-to-end times are
# reported at the reference speed, raw_time * CAL_REF_NS / kernel_time,
# where CAL_REF_NS is the kernel's time on a 2-core x86-64 VM (Python 3.11,
# numpy 2.4) in its fast regime. Raw times are printed and recorded as well.
CAL_ROUNDS = 50
CAL_REF_NS = 820_000
SEGMENT_NS = 20_000_000
WARMUP_S = 1.0
# Calls in each pass of a traced run: a fixed amount of work, so layer self
# times compare across commits.
TRACE_CALLS = {"sessions": 8000, "monte_carlo": 12, "sweep_csv": 4, "audit": 4000}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "ensemble_teleport" / "__init__.py").is_file():
        fail(f"no package source under {SRC}; run from the root of a checkout")
    os.environ.update(THREAD_ENV)  # before numpy loads; the set-up probes inherit it
    sys.path.insert(0, str(SRC))
    import ensemble_teleport
    import ensemble_teleport.cli  # noqa: F401  (the traced run wraps cli too)

    if Path(ensemble_teleport.__file__).resolve().parent != (SRC / "ensemble_teleport").resolve():
        fail(f"imported ensemble_teleport from {ensemble_teleport.__file__}, not from {SRC}")
    return ensemble_teleport


def make_workload(et, name: str, seed: int, small: bool = False):
    import workloads

    if name == "sessions":
        return workloads.Sessions(et, seed, size=200 if small else 2000)
    if name == "monte_carlo":
        return workloads.MonteCarlo(et, seed, size=6 if small else 12, n=100 if small else 1000)
    if name == "sweep_csv":
        return workloads.SweepCsv(et, str(OUT), shape=(4, 4) if small else workloads.SweepCsv.SHAPE)
    if name == "audit":
        return workloads.Audit(et, seed, size=40 if small else 400)
    fail(f"unknown workload {name!r}; expected one of {sorted(workloads.WORKLOADS)}")


def calibrate(repeats: int = 1) -> int:
    """Median nanoseconds of a fixed kernel that uses neither the library nor its inputs."""
    import numpy as np

    unit = np.eye(2, dtype=complex)
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        total = 0.0
        for i in range(CAL_ROUNDS):
            total += float(np.trace(np.kron(unit, unit)).real) + 0.5 * i
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


class Pass:
    """Calls, checks and timings of one closed-loop pass.

    Call times, raw and scaled to the reference speed, go into a fixed-size
    uniform sample (reservoir sampling with a seeded generator), so the
    process's memory does not grow with the number of calls and a faster
    library does not read as a larger peak RSS.
    """

    def __init__(self, seed: int = 0):
        self.sample = array("q", bytes(8 * RESERVOIR))
        self.scaled_sample = array("d", bytes(8 * RESERVOIR))
        self.calls = 0
        self.busy_ns = 0
        self.scaled_ns = 0.0
        self.speed = []  # kernel time over reference, one per segment
        self._rng = random.Random(seed)
        self.items = 0
        self.failed = 0
        self.missing_raise = 0
        self.probe_mismatch = False
        self.worst_err = 0.0
        self.notes: dict[str, int] = {}
        self.bytes_out = 0
        self.probed = None

    def add(self, segment: list[int], slowdown: float) -> None:
        """Record a segment of raw call times measured at ``slowdown`` times the reference speed."""
        self.speed.append(slowdown)
        for ns in segment:
            slot = self.calls if self.calls < RESERVOIR else self._rng.randrange(self.calls + 1)
            if slot < RESERVOIR:
                self.sample[slot] = ns
                self.scaled_sample[slot] = ns / slowdown
            self.calls += 1
            self.busy_ns += ns
            self.scaled_ns += ns / slowdown

    def durations_us(self, scaled: bool = True) -> list[float]:
        sample = self.scaled_sample if scaled else self.sample
        return [ns * 1e-3 for ns in sample[:min(self.calls, RESERVOIR)]]


def drive(workload, seconds: float | None = None, calls: int | None = None, seed: int = 0,
          start: int = 0, into: Pass | None = None) -> Pass:
    """Closed loop from call ``start``: for ``seconds`` of wall time, or for ``calls`` calls.

    The calibration kernel runs before the first call and after every
    segment of at least SEGMENT_NS of call time, once per SEGMENT_NS up to
    twenty times; a segment's calls are scaled by the mean of the two kernel
    times around it.
    """
    clock = time.perf_counter_ns
    result = into or Pass(seed)
    begin = clock()
    k = start
    before, segment, segment_ns = calibrate(), [], 0
    while (calls is None and clock() - begin < seconds * 1e9) or (calls is not None and k < start + calls):
        t0 = clock()
        try:
            value, exc = workload.call(k), None
        except Exception as error:  # the check decides whether raising was right
            value, exc = None, error
        segment.append(clock() - t0)
        segment_ns += segment[-1]
        if segment_ns >= SEGMENT_NS:
            after = calibrate(min(20, segment_ns // SEGMENT_NS))
            result.add(segment, (before + after) / (2 * CAL_REF_NS))
            before, segment, segment_ns = after, [], 0
        verdict = workload.check(k, value, exc)
        if k == workload.probe_index and exc is None:
            result.probed = workload.probe_result(value)
        result.items += workload.items(k)
        result.bytes_out += workload.bytes_out(k)
        result.worst_err = max(result.worst_err, verdict.err)
        if verdict.failed or verdict.missing_raise:
            result.failed += verdict.failed
            result.missing_raise += verdict.missing_raise
            result.notes[verdict.note] = result.notes.get(verdict.note, 0) + 1
        k += 1
    if segment:
        result.add(segment, (before + calibrate()) / (2 * CAL_REF_NS))
    return result


def tail(durations_us: list[float]) -> tuple[float, float, int]:
    """The highest listed percentile with at least ten calls beyond it: (percentile, us, calls beyond)."""
    ordered = sorted(durations_us)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        index = min(n - 1, int(n * q / 100.0))
        if n - index - 1 >= 10 or q == TAIL_PERCENTILES[-1]:
            return q, ordered[index], n - index - 1


def setup_times(workload, count: int) -> tuple[list[float], list[float], list]:
    """Fresh-interpreter import plus one valid call, ``count`` times in sequence: scaled and raw seconds.

    Each probe runs the calibration kernel itself after its timed part, so
    its time is scaled by the speed of the processor it ran on.
    """
    request = json.dumps({"workload": workload.name, "src": str(SRC), "spec": workload.probe_spec()})
    scaled, elapsed, results = [], [], []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), request], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        elapsed.append(line["elapsed_s"])
        scaled.append(line["elapsed_s"] * CAL_REF_NS / line["kernel_ns"])
        results.append(line["result"])
    return scaled, elapsed, results


def metadata(et, workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "package": getattr(et, "__version__", "unknown"),
        "blas": blas,
        "thread_env": THREAD_ENV,
        "git_sha": git_sha(),
        "entry": workload.entry,
        "sizes": workload.sizes,
        "items_per_call": workload.items(0),
        "shares": workload.shares,
        "loop": "closed, 1 client, no extra threads",
        "note": "shared machine, not pinned or quietened: read every figure with its spread",
    }


def git_sha() -> str:
    """The checkout's commit; 'unknown' outside a repository or without git.

    The search for a repository stops at the checkout's root, so a checkout
    that is not a repository does not report an enclosing one.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(workload, timed: Pass, setup_s: list[float], setup_raw_s: list[float]) -> tuple[dict, dict]:
    us, raw_us = timed.durations_us(), timed.durations_us(scaled=False)
    q1, median, q3 = statistics.quantiles(us, n=4) if len(us) > 1 else (us[0],) * 3
    percentile, tail_us, beyond = tail(us)
    metrics = {
        "items_per_s": timed.items / (timed.scaled_ns * 1e-9),
        "call_p50_us": statistics.median(us),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - (timed.failed + timed.missing_raise) / timed.calls,
    }
    extra = {
        "failed_frac": (timed.failed + timed.missing_raise) / timed.calls,
        "missing_raise": timed.missing_raise,
        "worst_ref_err": timed.worst_err,
        "call_tail_us": {"percentile": percentile, "value": tail_us, "calls_beyond": beyond,
                         "calls": len(us)},
        "call_iqr_us": [q1, q3],
        "setup_s_all": setup_s,
        "raw": {"items_per_s": timed.items / (timed.busy_ns * 1e-9), "call_p50_us": statistics.median(raw_us),
                "setup_s": statistics.median(setup_raw_s)},
        "slowdown": {"median": statistics.median(timed.speed), "min": min(timed.speed),
                     "max": max(timed.speed), "segments": len(timed.speed)},
        "failure_notes": timed.notes,
    }
    if hasattr(workload, "digest"):
        extra["results_sha256"] = workload.digest()
    if hasattr(workload, "sha"):
        extra["csv_sha256"] = {workload.pool[slot]["prep"]: sha for slot, sha in sorted(workload.sha.items())}
    return metrics, extra


def per_layer(tracer, untraced: Pass, traced: Pass, import_s: dict) -> dict:
    from tracing import MODULES

    calls, self_s = tracer.self_times()
    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
        metrics[f"{name}.calls_per_item"] = calls.get(name, 0) / traced.items
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == module)
        metrics[f"{module}.raised"] = tracer.raised.get(module, 0)
        metrics[f"{module}.import_s"] = import_s.get(module, 0.0)
    wall_s = traced.busy_ns * 1e-9
    metrics["cli.main.bytes_out"] = traced.bytes_out
    metrics["protocol.run_session.missing_raise"] = traced.missing_raise
    metrics["trace.wall_s"] = wall_s
    metrics["trace.untraced_wall_s"] = untraced.busy_ns * 1e-9
    # Both halves scaled to the reference speed, so a drift in machine speed
    # between them does not read as tracing cost.
    metrics["trace.overhead_ratio"] = traced.scaled_ns / untraced.scaled_ns
    metrics["trace.self_sum_s"] = sum(self_s.values())
    metrics["trace.unattributed_s"] = wall_s - sum(self_s.values())
    metrics["trace.items"] = traced.items
    return metrics


def run(name: str, seed: int, seconds: float, trace: int, small: bool = False) -> dict:
    """One benchmark run; returns the record whose ``result`` is the last line printed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    et = import_package()
    sys.path.insert(0, str(BENCH))
    OUT.mkdir(exist_ok=True)
    workload = make_workload(et, name, seed, small)
    meta = metadata(et, workload, seed, seconds, trace)
    drive(workload, seconds=min(WARMUP_S, seconds / 4) if small else WARMUP_S)

    if not trace:
        setup_s, setup_raw_s, probe_results = setup_times(workload, 1 if small else SETUP_PROBES)
        timed = drive(workload, seconds=seconds, seed=seed)
        metrics, extra = end_to_end(workload, timed, setup_s, setup_raw_s)
        wanted = spec["end_to_end"]
        if any(r != timed.probed for r in probe_results):
            timed.probe_mismatch = True
            timed.notes["set-up probe result differs from the same call made in process"] = 1
    else:
        import tracing

        half = (min(TRACE_CALLS[name], 2 * len(workload)) if small else TRACE_CALLS[name]) // 2
        untraced, timed, tracer = Pass(), Pass(), tracing.Tracer(et)
        # Untraced and traced halves in ABBA order, so drift in machine speed
        # cancels out of the overhead ratio; both cover calls [0, 2 * half).
        for start, traced in ((0, False), (0, True), (half, True), (half, False)):
            if traced:
                tracer.install()
            try:
                drive(workload, calls=half, start=start, into=timed if traced else untraced)
            finally:
                tracer.uninstall()
        import_s = tracing.import_self_times(str(SRC))
        metrics = per_layer(tracer, untraced, timed, import_s)
        extra = {"failure_notes": timed.notes, "worst_ref_err": timed.worst_err,
                 "missing_raise": timed.missing_raise}
        tracer.write(str(OUT / f"spans-{name}-{seed}.tsv"))
        wanted = spec["per_layer"]

    result = {
        "correct": timed.failed == 0 and not timed.probe_mismatch,
        "attempted": timed.calls,
        "failed": timed.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    record = {"meta": meta, "metrics": metrics, "extra": extra, "result": result}
    (OUT / f"run-{name}-{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    meta, metrics, extra, result = record["meta"], record["metrics"], record["extra"], record["result"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
          f"calls {result['attempted']}  failed {result['failed']}  missing_raise {extra['missing_raise']}  "
          f"correct {result['correct']}")
    if not meta["trace"]:
        for name, m in result["metrics"].items():
            print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
        print(f"  {'failed_frac':<14} {extra['failed_frac']:.6g} frac "
              f"(failed {result['failed']} + missing_raise {extra['missing_raise']})")
        t = extra["call_tail_us"]
        print(f"  call_tail_us   p{t['percentile']:g} = {t['value']:.6g} us "
              f"({t['calls_beyond']} of {t['calls']} calls beyond)")
        print(f"  worst_ref_err  {extra['worst_ref_err']:.3e}")
        raw, slow = extra["raw"], extra["slowdown"]
        print(f"  raw (unscaled) items_per_s {raw['items_per_s']:.6g} 1/s, call_p50_us {raw['call_p50_us']:.6g} us, "
              f"setup_s {raw['setup_s']:.6g} s; machine slowdown median {slow['median']:.3f} "
              f"(min {slow['min']:.3f}, max {slow['max']:.3f}, {slow['segments']} segments)")
    else:
        selfs = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") >= 2),
                       reverse=True)
        for v, k in selfs[:12]:
            print(f"  {k:<50} {v:.6g} s")
        for k in ("trace.overhead_ratio", "trace.wall_s", "trace.self_sum_s", "trace.unattributed_s"):
            print(f"  {k:<50} {metrics[k]:.6g}")
    for note, n in extra["failure_notes"].items():
        print(f"  check x{n}: {note}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    report(run(args.workload, args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    main()
