"""Command-line harness: operator audits, single sessions, sweeps, convention checks.

Every command is deterministic given its full flag set (appendix-check's includes --seed),
so repeated runs produce byte-identical output. Numeric fields are
serialized with 17 significant digits in CSV; JSON carries native floats
that round-trip exactly. Cell texts are formatted column by column; CSV and
JSON then take one pass over the rows.

Exit status: 0 on success, 1 on an invariant violation, bad configuration,
a run that does not fit in memory or an --out path that cannot be written,
2 when a numerical audit exceeds its tolerance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys

import numpy as np

from .bell import BELL_INDICES, _ppt_test, bell_projector
from .conventions import _compare_rows
from .fidelity import SAMPLERS, fidelity_report, lazy_fidelities
from .linalg import EQ_TOL, hermitian_spectrum
from .protocol import (
    ClassicalMessage,
    CoefficientVector,
    _session_states,
    automatic_preparation,
    bloch_coefficient_rows,
    coefficient_rows,
    resolve_preparation,
    run_session,
)

DEFAULT_SEED = 42

# --prep flag values and their preparation tensors.
_PREPS = {**{f"bell{i}": resolve_preparation(i) for i in BELL_INDICES}, "paut": automatic_preparation()}
_PREP_CHOICES = tuple(_PREPS)
# --message flag values and their ClassicalMessage variants.
_MESSAGES = {"twobits": "two_bits", "onebit": "one_bit_ping", "preagreed": "pre_agreed"}

_TELEPORT_CSV_COLUMNS = (
    "c11",
    "c12_re",
    "c12_im",
    "prep",
    "bob_acts",
    "bits_sent",
    "fidelity_trace",
    "fidelity_vector",
    "agree",
)


# Every command returns its column names, then the values column by column
# (one sequence or 1-d float64 array per name, all of one length), then its
# verdict. None marks an absent cell: empty in CSV and table output, left out
# of the JSON record.


def _csv_field(text: str) -> str:
    """One field as csv.writer writes it in a row of several (quoted when it must be)."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((text, ""))
    return out.getvalue()[:-2]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_cell(value) -> str:
    text = _format_cell(value)
    return text if value is None or isinstance(value, (bool, float)) else _csv_field(text)


def _json_float(value: float) -> str:
    # float.__repr__ is what json writes for a finite float.
    return float.__repr__(value) if value - value == 0.0 else json.dumps(value)


def _json_cell(value) -> str | None:
    if value is None:
        return None
    return _json_float(value) if isinstance(value, float) else json.dumps(value)


def _float_texts(values: list) -> list:
    """17 significant digits of each double, as ``_format_cell`` writes one."""
    return list(map(float.__format__, values, itertools.repeat(".17g")))


def _json_floats(values: list) -> list:
    return list(map(_json_float, values))


def _column_texts(data, cell_text, float_texts) -> list:
    """The cell texts of every row, one list per column.

    The float64 array columns share one table of distinct doubles, each
    formatted once by ``float_texts`` (a list of doubles to a list of texts);
    their cells index into it. Doubles are told apart by their bits, so 0.0
    and -0.0, or NaNs with different payloads, never share a text. Every
    other column formats cell by cell with ``cell_text``.
    """
    floats = [k for k, values in enumerate(data) if isinstance(values, np.ndarray) and values.dtype == np.float64]
    index = {}
    if floats:
        bits = np.concatenate([data[k] for k in floats]).view(np.uint64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        texts = np.array(float_texts(distinct.view(np.float64).tolist()), dtype=object)
        index = dict(zip(floats, inverse.reshape(len(floats), len(data[0]))))
    return [texts[index[k]].tolist() if k in index else list(map(cell_text, values)) for k, values in enumerate(data)]


def _render_table(columns, data) -> str:
    texts = _column_texts(data, _format_cell, _float_texts)
    widths = [max(len(name), max(map(len, text), default=0)) for name, text in zip(columns, texts)]
    padded = [[cell.ljust(w) for cell in text] for text, w in zip(texts, widths)]
    header = "  ".join(name.ljust(w) for name, w in zip(columns, widths)).rstrip()
    rule = "  ".join("-" * w for w in widths)
    body = ["  ".join(cells).rstrip() for cells in zip(*padded)]
    return "\n".join([header, rule, *body]) + "\n"


def _render_csv(columns, data) -> str:
    """CSV as csv.writer writes it, in one pass over the rows; cells that are not strings never need quoting."""
    lines = [",".join(map(_csv_field, columns))]
    lines.extend(map(",".join, zip(*_column_texts(data, _csv_cell, _float_texts))))
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def _render_json(columns, data) -> str:
    """json.dumps(records, indent=2) of one record per row, in one pass: ``key + text`` per present cell."""
    keys = [f"    {json.dumps(name)}: " for name in columns]
    records = []
    for row in zip(*_column_texts(data, _json_cell, _json_floats)):
        present = ",\n".join([key + text for key, text in zip(keys, row) if text is not None])
        records.append("  {\n" + present + "\n  }" if present else "  {}")
    return "[\n" + ",\n".join(records) + "\n]\n" if records else "[]\n"


def _render(columns, data, fmt: str) -> str:
    if fmt == "table":
        return _render_table(columns, data)
    if fmt == "csv":
        return _render_csv(columns, data)
    return _render_json(columns, data)


def _tolerance(args) -> float:
    if not args.tol > 0:  # also false for nan
        raise ValueError(f"--tol must be a positive number, got {args.tol!r}")
    return args.tol


def _cmd_bell_audit(args) -> tuple[tuple[str, ...], list, bool]:
    tol = _tolerance(args)
    columns = ("kind", "i", "j", "residual", "trace", "min_pt_eigenvalue", "entangled")
    rows: list[tuple] = []
    ok = True
    projectors = {i: bell_projector(i) for i in BELL_INDICES}
    for i in BELL_INDICES:
        r = projectors[i]
        idem = float(np.max(np.abs(r @ r - r)))
        pt_min, entangled = _ppt_test(r)
        rows.append(("operator", i, i, idem, float(np.trace(r).real), pt_min, entangled))
        ok = ok and idem < tol and entangled
    for i in BELL_INDICES:
        for j in BELL_INDICES:
            if i == j:
                continue
            residual = float(np.max(np.abs(projectors[i] @ projectors[j])))
            rows.append(("pair", i, j, residual, None, None, None))
            ok = ok and residual < tol
    completeness = float(
        np.max(np.abs(sum(projectors.values()) - np.eye(4, dtype=complex)))
    )
    rows.append(("completeness", None, None, completeness, None, None, None))
    ok = ok and completeness < tol
    return columns, list(zip(*rows)), ok


def _cmd_teleport(args) -> tuple[tuple[str, ...], list, bool]:
    c = CoefficientVector.from_components(args.c11, complex(args.c12re, args.c12im))
    u = _PREPS[args.prep]
    name = args.message or ("twobits" if u.bell_index is not None else "preagreed")
    if name == "twobits" and u.bell_index is None:
        raise ValueError("a two-bit message needs a Bell preparation, not paut")
    message = ClassicalMessage(_MESSAGES[name], u.bell_index if name == "twobits" else None)
    record = run_session(c, u, message, bob_acts=args.correct)
    report = fidelity_report(c, u.session_map(args.correct), record.bob_state)

    row = (
        c.c11,
        c.c12.real,
        c.c12.imag,
        args.prep,
        bool(args.correct),
        record.bits_sent,
        report.trace_form,
        report.vector_form,
        report.agree,
    )
    if args.format == "csv":
        columns = _TELEPORT_CSV_COLUMNS
    else:
        columns = _TELEPORT_CSV_COLUMNS + (
            "b11_re", "b11_im", "b12_re", "b12_im",
            "b21_re", "b21_im", "b22_re", "b22_im", "note",
        )
        state = np.asarray(record.bob_state).ravel()  # b11, b12, b21, b22
        row += (*(float(x) for entry in state for x in (entry.real, entry.imag)), report.note)
    return columns, list(zip(*[row])), True


def _sweep_grid(args, mag_resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """c11 and c12 of every sweep row, in c11-major, then |c12|, then arg(c12) order."""
    if args.slice == "zero":
        phases = np.zeros(1)
    else:
        phases = np.linspace(0.0, 2.0 * np.pi, args.phase_resolution, endpoint=False)
    rotations = np.exp(1j * phases)
    c11 = np.linspace(0.0, 1.0, args.resolution)
    mag_max = np.sqrt(np.maximum(c11 * (1.0 - c11), 0.0))
    if args.slice == "zero":
        mags = np.zeros((c11.size, 1))
    elif args.slice == "pure":
        mags = mag_max[:, None]
    else:
        # One linspace over the rows whose end point is positive gives each
        # row the bits of its own linspace; a zero end point among them would
        # send every row down linspace's zero-step branch, which rounds
        # differently. A row with end point 0 is all 0.0 either way.
        mags = np.zeros((c11.size, mag_resolution))
        positive = mag_max > 0.0
        mags[positive] = np.linspace(0.0, mag_max[positive], mag_resolution, axis=1)
    c12 = (mags[:, :, None] * rotations).ravel() + 0.0  # drop negative zeros
    return np.repeat(c11, mags.shape[1] * rotations.size), c12


def _cmd_sweep(args) -> tuple[tuple[str, ...], list, bool]:
    if args.resolution < 2:
        raise ValueError(f"sweep resolution must be at least 2, got {args.resolution}")
    mag_resolution = args.mag_resolution if args.mag_resolution is not None else args.resolution
    if mag_resolution < 1 or args.phase_resolution < 1:
        raise ValueError("magnitude and phase resolutions must be at least 1")

    c11, c12 = _sweep_grid(args, mag_resolution)
    coeffs = coefficient_rows(c11, c12, c12.conj(), 1.0 - c11)
    u = _PREPS[args.prep]
    # checked rows with c21 = conj(c12) exactly: under a certified map they skip the receiver checks
    _, trace = _session_states(u.session_map(False), coeffs, u._certified)
    lazy = lazy_fidelities(coeffs)
    columns = ("c11", "c12_re", "c12_im", "lazy_fidelity", "trace_fidelity")
    return columns, [c11, c12.real, c12.imag, lazy, trace], True


def _cmd_paut_audit(args) -> tuple[tuple[str, ...], list, bool]:
    tol = _tolerance(args)
    u = _PREPS["paut"]
    p = u.matrix()
    spectrum = hermitian_spectrum(p)
    norm = float(np.max(np.abs(spectrum)))
    p2 = p @ p
    factor = float((np.trace(p.conj().T @ p2) / np.trace(p.conj().T @ p)).real)
    tmat = u.coefficient_map
    t_residual = float(np.max(np.abs(tmat - np.eye(4, dtype=complex))))
    spectrum_residual = float(np.max(np.abs(spectrum - np.array([2.0, 0.0, 0.0, 0.0]))))
    note = (
        "self-adjoint but not a projection: P@P = 2P forces eigenvalues into {0, 2}, "
        "and trace 2 then fixes the spectrum to {2, 0, 0, 0}; a +1/-1 eigenvalue pair "
        "would contradict both identities"
    )
    trace = float(np.trace(p).real)
    row = (trace, factor, norm, *map(float, spectrum), t_residual, spectrum_residual, note)
    columns = (
        "trace",
        "idempotence_factor",
        "spectral_norm",
        "eig1",
        "eig2",
        "eig3",
        "eig4",
        "transformation_residual",
        "spectrum_residual",
        "note",
    )
    ok = (
        abs(trace - 2.0) < tol
        and abs(factor - 2.0) < tol
        and abs(norm - 2.0) < tol
        and spectrum_residual < tol
        and t_residual < tol
    )
    return columns, list(zip(*[row])), ok


def _cmd_appendix_check(args) -> tuple[tuple[str, ...], list, bool]:
    if args.samples < 1:
        raise ValueError(f"need at least 1 sample, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    tol = _tolerance(args)
    rng = np.random.default_rng(args.seed)
    columns = (
        "prep",
        "samples",
        "max_abs_diff",
        "expected_prenorm_ratio",
        "max_ratio_deviation",
        "within_tol",
    )
    rows: list[tuple] = []
    ok = True
    for name, u in _PREPS.items():
        expected_ratio = u.diagonal_weight()
        # One block per preparation takes the draws in the order that one
        # sample at a time would.
        coeffs = bloch_coefficient_rows(*SAMPLERS["mixed_uniform"](rng, args.samples))
        _, _, diff, ratio = _compare_rows(u, coeffs)
        max_diff = float(diff.max())
        max_ratio_dev = float(np.abs(ratio - expected_ratio).max())
        within = max_diff < tol and max_ratio_dev < max(tol, EQ_TOL)
        rows.append((name, args.samples, max_diff, expected_ratio, max_ratio_dev, within))
        ok = ok and within
    return columns, list(zip(*rows)), ok


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every ``main`` call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (default: table)",
    )
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="ensemble-teleport",
        description="Audits, sessions and sweeps for density-operator teleportation of qubit ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "bell-audit", parents=[common],
        help="check idempotence, orthogonality, completeness and entanglement of the four Bell projectors",
    )
    p.add_argument("--tol", type=float, default=1e-12, help="residual tolerance (default: 1e-12)")
    p.set_defaults(func=_cmd_bell_audit)

    p = sub.add_parser(
        "teleport", parents=[common],
        help="run one session: coefficients in, receiver state and both fidelity forms out",
    )
    p.add_argument("--c11", type=float, required=True, help="first diagonal coefficient; c22 = 1 - c11")
    p.add_argument("--c12re", type=float, default=0.0, help="real part of c12 (default: 0)")
    p.add_argument("--c12im", type=float, default=0.0, help="imaginary part of c12 (default: 0)")
    p.add_argument("--prep", choices=_PREP_CHOICES, required=True, help="sender preparation")
    p.add_argument(
        "--message", choices=tuple(_MESSAGES), default=None,
        help="classical channel use (default: twobits for Bell preparations, preagreed for paut)",
    )
    p.add_argument(
        "--correct", action=argparse.BooleanOptionalAction, default=True,
        help="whether the receiver applies the correction (default: --correct)",
    )
    p.set_defaults(func=_cmd_teleport)

    p = sub.add_parser(
        "sweep", parents=[common],
        help="tabulate lazy and trace fidelities over a coefficient grid",
    )
    p.add_argument("--resolution", type=int, default=51, help="points on the c11 axis (default: 51)")
    p.add_argument(
        "--mag-resolution", type=int, default=None,
        help="points on the |c12| axis (default: same as --resolution)",
    )
    p.add_argument(
        "--phase-resolution", type=int, default=1,
        help="points on the arg(c12) axis over [0, 2pi) (default: 1)",
    )
    p.add_argument(
        "--slice", choices=("grid", "zero", "pure"), default="grid",
        help="grid: full (resolution x mag x phase rows); zero: c12 = 0 (resolution rows); "
        "pure: |c12|^2 = c11*c22 (resolution x phase rows)",
    )
    p.add_argument("--prep", choices=_PREP_CHOICES, default="bell1",
                   help="preparation for the uncorrected trace fidelity column (default: bell1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "paut-audit", parents=[common],
        help="spectrum, norm, squaring factor and coefficient map of the automatic preparation",
    )
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance (default: 1e-10)")
    p.set_defaults(func=_cmd_paut_audit)

    p = sub.add_parser(
        "appendix-check", parents=[common],
        help="compare one-sided and two-sided update conventions on random inputs",
    )
    p.add_argument("--samples", type=int, default=100, help="random inputs per preparation (default: 100)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"random seed (default: {DEFAULT_SEED})")
    p.add_argument("--tol", type=float, default=1e-12, help="agreement tolerance (default: 1e-12)")
    p.set_defaults(func=_cmd_appendix_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        columns, data, ok = args.func(args)
        text = _render(columns, data, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid or sample count too large for this machine
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
