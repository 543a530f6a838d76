"""Smoke test of the benchmark itself, at tiny sizes; not part of the test suite.

    python3 bench/smoke.py

Checks that BENCHMARK.json keeps to its schema, that every workload prints
exactly the listed metrics with their units, that the traced run accounts
for its wall time, that repeating a seed repeats the outputs, and that each
reference check is live: a perturbed result and an unexpected raise must each
be counted as failed, and a missing raise as ``missing_raise``. Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(spec)}")
    check(1 <= len(spec["paths"]) <= 16 and all(PATH.match(p) and ".." not in p for p in spec["paths"]), "paths")
    check(len(spec["command"]) <= 32 and all(len(c) <= 200 and not c.startswith("/") for c in spec["command"]),
          "command")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
              and "\n" not in w["why"], f"workload {w}")
    check(1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128, "metric counts")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"metric {m}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"metric {m}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "duplicate metric names")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), f"metric {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s entry")
    check(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json size")


def check_output(record: dict, wanted: list[dict]) -> None:
    result = record["result"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    check(result["correct"] is True, f"{record['meta']['workload']} not correct: {record['extra']['failure_notes']}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    check(isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], "failed")
    check(list(result["metrics"]) == [m["name"] for m in wanted], "metric names")
    for m in wanted:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), f"metric {m['name']}: {got}")


def check_liveness(et, name: str) -> None:
    """Every check fails a perturbed result; sessions also fail a missing or an unexpected raise."""
    workload = run.make_workload(et, name, seed=7, small=True)
    for k in range(len(workload)):
        value = workload.call(k)
        honest = workload.check(k, value, None)
        check(not honest.failed, f"{name} call {k} failed before perturbation: {honest.note}")
        check(workload.check(k, workload.perturb(value), None).failed, f"{name} call {k}: perturbation not caught")
        entry = workload.pool[k]
        if name == "sessions":
            must_raise = entry["must_raise"]
            check(honest.missing_raise == must_raise, f"sessions call {k}: missing raise not counted")
            check(workload.check(k, None, ValueError("refused")).failed != must_raise,
                  f"sessions call {k}: raise misjudged")
        else:
            check(workload.check(k, None, ValueError("refused")).failed, f"{name} call {k}: raise not counted")
    if name == "sessions":
        kinds = {e["kind"] for e in workload.pool}
        check(kinds == {kind for kind, _ in workload.MIX}, f"sessions pool kinds {kinds}")
        check(any(e["must_raise"] for e in workload.pool), "sessions pool has no session that must raise")
        check(not workload.pool[workload.probe_index]["must_raise"], "set-up probe replays a session that must raise")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check([w["name"] for w in spec["workloads"]] == ["sessions", "monte_carlo", "sweep_csv", "audit"],
          "workload names")
    et = run.import_package()
    for w in spec["workloads"]:
        name = w["name"]
        check_liveness(et, name)
        with redirect_stdout(io.StringIO()):
            first = run.run(name, seed=3, seconds=0.4, trace=0, small=True)
            again = run.run(name, seed=3, seconds=0.4, trace=0, small=True)
            traced = run.run(name, seed=3, seconds=0.4, trace=1, small=True)
        check_output(first, spec["end_to_end"])
        check_output(traced, spec["per_layer"])
        check(first["result"]["failed"] == 0 and traced["result"]["failed"] == 0, f"{name}: calls failed")
        for key in ("results_sha256", "csv_sha256"):
            check(first["extra"].get(key) == again["extra"].get(key), f"{name}: {key} differs on a repeated seed")
        m = traced["metrics"]
        modules = sum(m[f"{module}.self_s"] for module in tracing.MODULES)
        check(abs(modules - m["trace.self_sum_s"]) < 1e-9, f"{name}: module self times do not add up")
        check(0 <= m["trace.unattributed_s"] < 0.05 * m["trace.wall_s"],
              f"{name}: {m['trace.unattributed_s']} s of {m['trace.wall_s']} s traced wall not attributed")
        check(m["trace.overhead_ratio"] > 0, f"{name}: overhead ratio")
        print(f"smoke: {name} ok ({first['result']['attempted']} calls, "
              f"{first['result']['failed']} failed, tracing overhead x{m['trace.overhead_ratio']:.2f})")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
