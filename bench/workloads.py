"""The four benchmark workloads: seeded inputs, the timed call, and its reference check.

Every workload owns a pool of inputs generated from the seed before timing
starts. Call ``k`` replays pool entry ``k % len(pool)``. The checks use only
numpy and closed forms from the paper, never the library under test, so a
library defect cannot hide in its own reference.

A call fails when it raises where the reference says the result is valid or
returns a value more than ``TOL`` from its reference. A call that returns where
the reference says it must raise is not a wrong output (its numbers equal the
reference) but a missing validation: the reference is not a statistical
operator. It is counted apart as ``missing_raise``.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass

import numpy as np

TOL = 1e-12
# Statistical-operator test of a normalized reference state: the smallest
# eigenvalue may undershoot zero by roundoff, never by more.
PSD_TOL = 1e-9
# Monte-Carlo means must lie within this many standard errors of the
# ensemble mean; a fixed multiple keeps the check independent of the stream.
MC_STDERR_MULTIPLE = 6.0

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_R2 = np.sqrt(0.5)
# Bell-type vectors in the |11>, |12>, |21>, |22> product basis, indices 1..4.
_BELL_VECTORS = {
    1: np.array([_R2, 0, 0, _R2], dtype=complex),
    2: np.array([_R2, 0, 0, -_R2], dtype=complex),
    3: np.array([0, _R2, _R2, 0], dtype=complex),
    4: np.array([0, _R2, -_R2, 0], dtype=complex),
}
BELL = {k: np.outer(v, v.conj()) for k, v in _BELL_VECTORS.items()}
AUTOMATIC = 2.0 * BELL[4]


def rho_from_bloch(x: float, y: float, z: float) -> np.ndarray:
    return 0.5 * (_I2 + x * _SX + y * _SY + z * _SZ)


def receiver_numerator(prep: np.ndarray, rho: np.ndarray, two_sided: bool = False) -> np.ndarray:
    """Tr_CA[(P ⊗ I)(rho ⊗ P4)], or the sandwich (P ⊗ I)(rho ⊗ P4)(P ⊗ I), before normalization."""
    p8 = np.kron(prep, _I2)
    total = np.kron(rho, BELL[4])
    raw = p8 @ total @ p8 if two_sided else p8 @ total
    return np.einsum("cabcad->bd", raw.reshape((2,) * 6))


def statistical(state: np.ndarray) -> bool:
    """Hermitian, unit trace and positive semidefinite, at the reference tolerances."""
    if np.max(np.abs(state - state.conj().T)) > TOL:
        return False
    if abs(np.trace(state) - 1.0) > TOL:
        return False
    return bool(np.linalg.eigvalsh(0.5 * (state + state.conj().T))[0] >= -PSD_TOL)


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * _R2
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bloch_points(rng: np.random.Generator, n: int, pure: bool) -> np.ndarray:
    """n Bloch vectors, uniform on the sphere (pure) or in the ball (mixed)."""
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    if not pure:
        v *= rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / 3.0)
    return v


def tensor_from_matrix(p: np.ndarray) -> np.ndarray:
    """Weights u[k, l, m, n] of the sender operator with matrix p[(k, m), (l, n)]."""
    return p.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).copy()


def general_matrix(rng: np.random.Generator, psd: bool) -> np.ndarray:
    """A Hermitian 4x4 sender operator with nonnegative diagonal summing to one.

    The PSD half is a Wishart draw mixed with I/4. The other half keeps the
    same diagonal but has off-diagonal entries large enough for a negative
    eigenvalue. Both keep Tr_A(P) >= 0.1 I, so the receiver's unnormalized
    trace, Tr[Tr_A(P) rho] / 2, is at least 0.05 for every input and the
    library never raises for annihilation.
    """
    while True:
        if psd:
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            w = a @ a.conj().T
            p = 0.5 * w / np.trace(w).real + 0.125 * np.eye(4)
        else:
            diag = 0.5 * rng.dirichlet(np.ones(4)) + 0.125
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = 0.2 * (h + h.conj().T)
            np.fill_diagonal(h, 0.0)
            p = np.diag(diag).astype(complex) + h
        p = 0.5 * (p + p.conj().T)
        reduced = np.einsum("kmlm->kl", p.reshape(2, 2, 2, 2))
        if np.linalg.eigvalsh(reduced)[0] < 0.1:
            continue
        if not psd and np.linalg.eigvalsh(p)[0] > -0.05:
            continue
        return p


@dataclass
class Verdict:
    """Outcome of one reference check."""

    failed: bool = False  # a wrong value or an unexpected raise
    missing_raise: bool = False  # returned a correct value where the reference says it must raise
    err: float = 0.0  # largest deviation from an exact reference
    note: str = ""


def _compare(value, reference, what: str, verdict: Verdict) -> None:
    err = float(np.max(np.abs(np.asarray(value) - np.asarray(reference))))
    verdict.err = max(verdict.err, err)
    if not err <= TOL:
        verdict.failed = True
        verdict.note = verdict.note or f"{what} misses its reference by more than {TOL}"


def _raised(exc: BaseException, must_raise: bool) -> Verdict:
    if must_raise and isinstance(exc, ValueError):
        return Verdict()
    return Verdict(True, False, 0.0, f"raised {type(exc).__name__} where the reference says the result is valid")


class Workload:
    """Pool of seeded inputs replayed by call index.

    Subclasses provide ``call`` and ``check``, ``probe_spec`` and
    ``probe_result`` for the set-up probe, and ``perturb``, which moves one
    number of a result past its tolerance so the smoke test can show that
    the check is live.
    """

    name = ""
    entry = ""
    # Pool entry replayed by the set-up probe; its result must be valid.
    probe_index = 0

    def __len__(self) -> int:
        return len(self.pool)

    def items(self, k: int) -> int:
        return 1

    def bytes_out(self, k: int) -> int:
        return 0


class Sessions(Workload):
    """Back-to-back ``run_session`` calls over a fixed mix of preparations."""

    name = "sessions"
    entry = "protocol.run_session"
    # Shares of the pool; general tensors are split evenly into PSD and non-PSD.
    # The expensive kinds (automatic and general: five tensor comparisons in
    # resolution) make up 60%, so the median call lies inside their cluster
    # rather than in the gap between cheap and expensive calls, where it would
    # jump with small shifts in machine speed.
    MIX = (("automatic", 0.35), ("bell_int", 0.15), ("bell_tensor", 0.15),
           ("lazy", 0.10), ("general_psd", 0.125), ("general_nonpsd", 0.125))

    def __init__(self, et, seed: int, size: int = 2000):
        rng = np.random.default_rng([seed, 1])
        kinds = []
        for kind, share in self.MIX:
            kinds += [kind] * int(round(share * size))
        kinds = [kinds[i] for i in rng.permutation(len(kinds))]
        pure = rng.permutation(len(kinds)) % 2 == 0
        points = np.where(pure[:, None], bloch_points(rng, len(kinds), True),
                          bloch_points(rng, len(kinds), False))
        bell_tensors = {k: et.preparation_from_bell(k) for k in (1, 2, 3, 4)}
        automatic = et.automatic_preparation()
        self.pool = []
        self.shares = {kind: kinds.count(kind) / len(kinds) for kind, _ in self.MIX}
        self.sizes = {"pool": len(kinds)}
        nonpsd_seen = 0
        for i, kind in enumerate(kinds):
            x, y, z = (float(v) for v in points[i])
            entry = {"kind": kind, "bloch": (x, y, z), "c": et.CoefficientVector.from_bloch(x, y, z)}
            rho = rho_from_bloch(x, y, z)
            index = 1 + i % 4
            if kind == "automatic":
                entry.update(prep=automatic, message=et.ClassicalMessage.pre_agreed(),
                             bob_acts=False, bits=0, state=rho)
            elif kind == "bell_int":
                entry.update(prep=index, index=index, message=et.ClassicalMessage.two_bits(index),
                             bob_acts=True, bits=2, state=rho)
            elif kind == "bell_tensor":
                entry.update(prep=bell_tensors[index], index=index,
                             message=et.ClassicalMessage.two_bits(index),
                             bob_acts=True, bits=2, state=rho)
            elif kind == "lazy":
                # Bell-1 without correction leaves sigma_y rho sigma_y: (x, y, z) -> (-x, y, -z).
                entry.update(prep=bell_tensors[1], message=et.ClassicalMessage.ping(),
                             bob_acts=False, bits=1, state=rho_from_bloch(-x, y, -z))
            else:
                # Non-PSD tensors alternate between ones whose receiver state is
                # unphysical and ones whose state happens to be physical, so the
                # share of sessions that must raise is the same for every seed.
                unphysical = kind == "general_nonpsd" and nonpsd_seen % 2 == 0
                nonpsd_seen += kind == "general_nonpsd"
                while True:
                    p = general_matrix(rng, psd=kind == "general_psd")
                    numerator = receiver_numerator(p, rho)
                    state = numerator / np.trace(numerator).real
                    if statistical(state) != unphysical:
                        break
                u = tensor_from_matrix(p)
                entry.update(prep=et.PreparationTensor(u=u, normalized=True), matrix=p,
                             message=et.ClassicalMessage.pre_agreed(), bob_acts=False, bits=0,
                             state=state, must_raise=unphysical)
            entry.setdefault("must_raise", False)
            entry["fidelity"] = float(np.trace(rho @ entry["state"]).real)
            self.pool.append(entry)
        self.probe_index = next(i for i, e in enumerate(self.pool) if not e["must_raise"])
        self.et = et

    def call(self, k: int):
        e = self.pool[k % len(self.pool)]
        return self.et.run_session(e["c"], e["prep"], e["message"], e["bob_acts"])

    def check(self, k: int, value, exc) -> Verdict:
        e = self.pool[k % len(self.pool)]
        if exc is not None:
            return _raised(exc, e["must_raise"])
        v = Verdict()
        _compare(value.bob_state, e["state"], "receiver state", v)
        _compare(value.fidelity, e["fidelity"], "fidelity", v)
        if e["kind"] in ("automatic", "bell_int", "bell_tensor"):
            x, y, z = e["bloch"]
            _compare(value.fidelity, (1.0 + x * x + y * y + z * z) / 2.0, "closed-form fidelity", v)
        elif e["kind"] == "lazy":
            x, y, z = e["bloch"]
            _compare(value.fidelity, (1.0 - x * x + y * y - z * z) / 2.0, "lazy fidelity", v)
        if value.bits_sent != e["bits"]:
            v.failed = True
            v.note = v.note or "wrong bits_sent"
        if e["must_raise"] and not v.failed:
            v.missing_raise = True
            v.note = "returned an operator that is not a statistical operator"
        return v

    def perturb(self, value):
        return type(value)(bob_state=value.bob_state, fidelity=value.fidelity + 1e-9,
                           bits_sent=value.bits_sent)

    def probe_spec(self) -> dict:
        e = self.pool[self.probe_index]
        spec = {"bloch": e["bloch"], "kind": e["kind"], "bob_acts": e["bob_acts"]}
        if e["kind"] in ("bell_int", "bell_tensor"):
            spec["index"] = e["index"]
        if "matrix" in e:
            spec["u"] = _complex_to_json(tensor_from_matrix(e["matrix"]))
        return spec

    @staticmethod
    def probe_result(value):
        return [value.fidelity, _complex_to_json(np.asarray(value.bob_state))]


class MonteCarlo(Workload):
    """``average_fidelity(n=1000)`` cycling through three cases."""

    name = "monte_carlo"
    entry = "fidelity.average_fidelity"
    N = 1000
    # (case, prep, bob_acts, sampler, exact mean or ensemble mean)
    CASES = (("bell2_corrected_pure", 2, True, "pure_uniform", 1.0),
             ("bell1_lazy_mixed", 1, False, "mixed_uniform", 0.4),
             ("automatic_mixed", None, False, "mixed_uniform", 0.8))

    def __init__(self, et, seed: int, size: int = 12, n: int = N):
        self.et = et
        self.n = n
        seeds = np.random.SeedSequence([seed, 2]).generate_state(size)
        automatic = et.automatic_preparation()
        self.pool = []
        for i, s in enumerate(seeds):
            case, prep, bob_acts, sampler, mean = self.CASES[i % len(self.CASES)]
            self.pool.append({"case": case, "prep": automatic if prep is None else prep,
                              "prep_index": prep, "bob_acts": bob_acts, "sampler": sampler,
                              "mean": mean, "seed": int(s)})
        self.first = {}
        self.shares = {case: 1.0 / len(self.CASES) for case, *_ in self.CASES}
        self.sizes = {"pool": size, "samples_per_call": n}

    def items(self, k: int) -> int:
        return self.n

    def call(self, k: int):
        e = self.pool[k % len(self.pool)]
        return self.et.average_fidelity(e["prep"], e["bob_acts"], sampler=e["sampler"],
                                        n=self.n, seed=e["seed"])

    def check(self, k: int, value, exc) -> Verdict:
        e = self.pool[k % len(self.pool)]
        if exc is not None:
            return _raised(exc, False)
        v = Verdict()
        mean, stderr = float(value[0]), float(value[1])
        if e["case"] == "bell2_corrected_pure":
            _compare(mean, 1.0, "mean fidelity", v)
            _compare(stderr, 0.0, "stderr", v)
        elif not (0.0 < stderr < 1.0 and abs(mean - e["mean"]) <= MC_STDERR_MULTIPLE * stderr):
            v.failed = True
            v.note = f"{e['case']} mean is not within {MC_STDERR_MULTIPLE} stderr of {e['mean']}"
        slot = k % len(self.pool)
        if slot in self.first and self.first[slot] != (mean, stderr):
            v.failed = True
            v.note = v.note or "repeated seed gave a different result"
        self.first.setdefault(slot, (mean, stderr))
        return v

    def perturb(self, value):
        return (value[0] + max(1e-9, 10.0 * value[1]), value[1])

    def probe_spec(self) -> dict:
        e = self.pool[self.probe_index]
        return {"prep": e["prep_index"], "bob_acts": e["bob_acts"], "sampler": e["sampler"],
                "n": self.n, "seed": e["seed"]}

    @staticmethod
    def probe_result(value):
        return [float(value[0]), float(value[1])]

    def digest(self) -> str:
        h = hashlib.sha256()
        for slot in sorted(self.first):
            h.update(repr(self.first[slot]).encode())
        return h.hexdigest()


class SweepCsv(Workload):
    """In-process ``cli.main(["sweep", ...])`` writing a CSV grid to a file."""

    name = "sweep_csv"
    entry = "cli.main"
    # (resolution, phase resolution): R * R * P rows. The grid has no random
    # inputs, so the seed does not change it.
    SHAPE = (30, 4)
    PREPS = ("bell1", "paut")

    def __init__(self, et, out_dir: str, shape=SHAPE):
        from ensemble_teleport import cli

        self.cli = cli
        self.resolution, self.phases = shape
        self.rows = self.resolution * self.resolution * self.phases
        self.path = os.path.join(out_dir, "sweep.csv")
        self.pool = [{"prep": prep, "argv": [
            "sweep", "--slice", "grid", "--resolution", str(self.resolution),
            "--phase-resolution", str(self.phases), "--prep", prep,
            "--format", "csv", "--out", self.path]} for prep in self.PREPS]
        self.sha = {}
        self.size = {}
        self.shares = {prep: 0.5 for prep in self.PREPS}
        self.sizes = {"resolution": self.resolution, "phase_resolution": self.phases, "rows": self.rows}

    def items(self, k: int) -> int:
        return self.rows

    def bytes_out(self, k: int) -> int:
        return self.size.get(k % len(self.pool), 0)

    def call(self, k: int):
        return self.cli.main(self.pool[k % len(self.pool)]["argv"])

    def _read(self, path=None) -> bytes:
        with open(path or self.path, "rb") as handle:
            return handle.read()

    def check(self, k: int, value, exc) -> Verdict:
        e = self.pool[k % len(self.pool)]
        if exc is not None:
            return _raised(exc, False)
        if value != 0:
            return Verdict(True, False, 0.0, "nonzero exit code")
        data = self._read()
        v = Verdict()
        lines = data.decode().splitlines()
        if lines[:1] != ["c11,c12_re,c12_im,lazy_fidelity,trace_fidelity"] or len(lines) != self.rows + 1:
            return Verdict(True, False, 0.0, "wrong CSV header or row count")
        table = np.array([[float(cell) for cell in row] for row in csv.reader(lines[1:])])
        c11, re, im, lazy, trace = table.T
        x, y, z = 2.0 * re, -2.0 * im, 2.0 * c11 - 1.0
        _compare(lazy, 2.0 * c11 * (1.0 - c11) - 2.0 * (re * re + im * im), "lazy_fidelity", v)
        if e["prep"] == "bell1":
            _compare(trace, (1.0 - x * x + y * y - z * z) / 2.0, "trace_fidelity", v)
        else:
            _compare(trace, (1.0 + x * x + y * y + z * z) / 2.0, "trace_fidelity", v)
        grid = np.linspace(0.0, 1.0, self.resolution)
        _compare(np.unique(c11), grid, "c11 grid", v)
        sha = hashlib.sha256(data).hexdigest()
        slot = k % len(self.pool)
        if self.sha.setdefault(slot, sha) != sha:
            v.failed = True
            v.note = v.note or "repeated flags gave a different CSV"
        self.size[slot] = len(data)
        return v

    def perturb(self, value):
        lines = self._read().decode().splitlines()
        cells = lines[5].split(",")
        cells[4] = format(float(cells[4]) + 1e-9, ".17g")
        lines[5] = ",".join(cells)
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return value

    def probe_spec(self) -> dict:
        argv = list(self.pool[self.probe_index]["argv"])
        argv[-1] = self.path + ".probe"
        return {"argv": argv}

    def probe_result(self, value):
        return hashlib.sha256(self._read()).hexdigest()


class Audit(Workload):
    """Alternating PPT classification of rotated Werner states and convention comparisons."""

    name = "audit"
    entry = "bell.ppt_entangled | conventions.compare_conventions"
    GAP = 0.05  # Werner weights stay this far from the 1/3 threshold

    def __init__(self, et, seed: int, size: int = 400):
        rng = np.random.default_rng([seed, 4])
        self.et = et
        preps = {k: et.preparation_from_bell(k) for k in (1, 2, 3, 4)}
        preps[0] = et.automatic_preparation()
        self.pool = []
        for i in range(size):
            if i % 2 == 0:
                k = 1 + (i // 2) % 4
                entangled = (i // 8) % 2 == 0
                third = 1.0 / 3.0
                p = rng.uniform(third + self.GAP, 1.0) if entangled else rng.uniform(0.0, third - self.GAP)
                w = p * BELL[k] + (1.0 - p) * np.eye(4) / 4.0
                u = np.kron(haar_unitary(rng), haar_unitary(rng))
                w = u @ w @ u.conj().T
                w = 0.5 * (w + w.conj().T)
                self.pool.append({"kind": "ppt", "op": w, "entangled": bool(p > third)})
            else:
                k = (i // 2) % 5
                x, y, z = (float(t) for t in bloch_points(rng, 1, pure=False)[0])
                rho = rho_from_bloch(x, y, z)
                matrix = AUTOMATIC if k == 0 else BELL[k]
                one = receiver_numerator(matrix, rho)
                two = receiver_numerator(matrix, rho, two_sided=True)
                self.pool.append({"kind": "conventions", "prep": preps[k],
                                  "c": et.CoefficientVector.from_bloch(x, y, z),
                                  "ansatz": one / np.trace(one).real, "sandwich": two / np.trace(two).real,
                                  "ratio": 2.0 if k == 0 else 1.0})
        self.shares = {"ppt": 0.5, "conventions": 0.5}
        self.sizes = {"pool": size}

    def call(self, k: int):
        e = self.pool[k % len(self.pool)]
        if e["kind"] == "ppt":
            return self.et.ppt_entangled(e["op"])
        return self.et.compare_conventions(e["prep"], e["c"])

    def check(self, k: int, value, exc) -> Verdict:
        e = self.pool[k % len(self.pool)]
        if exc is not None:
            return _raised(exc, False)
        v = Verdict()
        if e["kind"] == "ppt":
            if value is not e["entangled"]:
                v.failed = True
                v.note = "PPT classification disagrees with p > 1/3"
            return v
        _compare(value.ansatz, e["ansatz"], "one-sided state", v)
        _compare(value.sandwich, e["sandwich"], "two-sided state", v)
        _compare(value.max_abs_diff, 0.0, "convention gap", v)
        _compare(value.prenorm_ratio, e["ratio"], "pre-normalization ratio", v)
        return v

    def perturb(self, value):
        if isinstance(value, bool):
            return not value
        return type(value)(ansatz=value.ansatz, sandwich=value.sandwich,
                           max_abs_diff=value.max_abs_diff, prenorm_ratio=value.prenorm_ratio + 1e-9)

    def probe_spec(self) -> dict:
        return {"op": _complex_to_json(self.pool[self.probe_index]["op"])}

    @staticmethod
    def probe_result(value):
        return bool(value)


def _complex_to_json(a) -> list:
    a = np.asarray(a)
    return [a.real.tolist(), a.imag.tolist()]


WORKLOADS = {w.name: w for w in (Sessions, MonteCarlo, SweepCsv, Audit)}
