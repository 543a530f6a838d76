import csv
import hashlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ensemble_teleport import (
    CoefficientVector,
    alice_prepare,
    automatic_preparation,
    bloch_coefficient_rows,
    fidelity_trace,
    lazy_fidelity,
    preparation_from_bell,
    renormalize,
)
from ensemble_teleport import cli
from ensemble_teleport.cli import main
from ensemble_teleport.fidelity import SAMPLERS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBellAudit:
    def test_default_run_passes(self, capsys):
        code, out, err = run_cli(capsys, "bell-audit")
        assert code == 0
        assert err == ""
        assert out.count("entangled") >= 1

    def test_json_has_one_record_per_pair(self, capsys):
        code, out, _ = run_cli(capsys, "bell-audit", "--format", "json")
        assert code == 0
        records = json.loads(out)
        pairs = [r for r in records if r["kind"] in ("operator", "pair")]
        assert len(pairs) == 16
        assert {(r["i"], r["j"]) for r in pairs} == {
            (i, j) for i in range(1, 5) for j in range(1, 5)
        }
        operators = [r for r in records if r["kind"] == "operator"]
        assert all(r["entangled"] for r in operators)
        assert all(r["residual"] < 1e-12 for r in records)
        completeness = [r for r in records if r["kind"] == "completeness"]
        assert len(completeness) == 1 and completeness[0]["residual"] < 1e-12

    def test_min_pt_eigenvalue_reported(self, capsys):
        _, out, _ = run_cli(capsys, "bell-audit", "--format", "json")
        operators = [r for r in json.loads(out) if r["kind"] == "operator"]
        for record in operators:
            assert abs(record["min_pt_eigenvalue"] + 0.5) < 1e-10


class TestTeleport:
    def test_lazy_bell_one_gives_half(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--c11", "0.5", "--c12re", "0", "--c12im", "0",
            "--prep", "bell1", "--no-correct", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)[0]
        assert abs(record["fidelity_trace"] - 0.5) < 1e-12
        assert record["bits_sent"] == 2  # default message still carries the index

    def test_automatic_teleportation_without_bits(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--c11", "1", "--c12re", "0", "--c12im", "0",
            "--prep", "paut", "--message", "preagreed", "--no-correct", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)[0]
        assert abs(record["fidelity_trace"] - 1.0) < 1e-12
        assert record["bits_sent"] == 0

    def test_corrected_near_pure_input(self, capsys):
        # fidelity equals the input purity 0.09 + 0.49 + 2*0.458^2 = 0.999528
        code, out, _ = run_cli(
            capsys, "teleport", "--c11", "0.3", "--c12re", "0.458", "--c12im", "0",
            "--prep", "bell2", "--correct", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)[0]
        assert abs(record["fidelity_trace"] - 0.999528) < 1e-12
        assert record["bits_sent"] == 2

    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--c11", "0.5", "--prep", "bell1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "c11", "c12_re", "c12_im", "prep", "bob_acts", "bits_sent",
            "fidelity_trace", "fidelity_vector", "agree",
        ]
        assert len(rows) == 2

    def test_csv_serializes_17_significant_digits(self, capsys):
        _, out, _ = run_cli(
            capsys, "teleport", "--c11", "0.3", "--prep", "bell1", "--format", "csv",
        )
        row = list(csv.reader(io.StringIO(out)))[1]
        assert row[0] == "0.29999999999999999"

    def test_invalid_coefficients_fail_with_named_invariant(self, capsys):
        code, out, err = run_cli(
            capsys, "teleport", "--c11", "0.5", "--c12re", "0.9", "--prep", "bell1",
        )
        assert code == 1
        assert out == ""
        assert "positivity" in err

    @pytest.mark.parametrize("prep, bits", [("bell2", 2), ("paut", 0)])
    def test_default_message(self, capsys, prep, bits):
        # twobits for a Bell preparation, preagreed for paut
        code, out, _ = run_cli(capsys, "teleport", "--c11", "0.5", "--prep", prep, "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["bits_sent"] == bits

    def test_onebit_message(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--c11", "0.5", "--prep", "bell3",
            "--message", "onebit", "--no-correct", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)[0]["bits_sent"] == 1

    def test_twobits_with_paut_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "teleport", "--c11", "0.5", "--prep", "paut", "--message", "twobits",
        )
        assert code == 1
        assert "two-bit" in err

    def test_json_round_trips_float_values(self, capsys):
        _, out, _ = run_cli(
            capsys, "teleport", "--c11", "0.3", "--prep", "bell1", "--format", "json",
        )
        record = json.loads(out)[0]
        assert record["c11"] == 0.3


def reference_sweep_grid(args, mag_resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The sweep grid as one np.linspace per c11 builds it: the oracle for ``cli._sweep_grid``."""
    if args.slice == "zero":
        phases = np.zeros(1)
    else:
        phases = np.linspace(0.0, 2.0 * np.pi, args.phase_resolution, endpoint=False)
    rotations = np.exp(1j * phases)
    c11_blocks, c12_blocks = [], []
    for c11 in np.linspace(0.0, 1.0, args.resolution):
        mag_max = float(np.sqrt(max(c11 * (1.0 - c11), 0.0)))
        if args.slice == "zero":
            mags = np.zeros(1)
        elif args.slice == "pure":
            mags = np.array([mag_max])
        else:
            # One linspace per c11: an array of end points rounds differently.
            mags = np.linspace(0.0, mag_max, mag_resolution)
        c12 = (mags[:, None] * rotations).ravel() + 0.0  # drop negative zeros
        c11_blocks.append(np.full(c12.size, c11))
        c12_blocks.append(c12)
    return np.concatenate(c11_blocks), np.concatenate(c12_blocks)


def assert_grid_matches_reference(resolution, mag_resolution, phase_resolution, slice_):
    args = cli.build_parser().parse_args([
        "sweep", "--resolution", str(resolution), "--mag-resolution", str(mag_resolution),
        "--phase-resolution", str(phase_resolution), "--slice", slice_,
    ])
    got = cli._sweep_grid(args, mag_resolution)
    expected = reference_sweep_grid(args, mag_resolution)
    for column, reference in zip(got, expected):
        assert (column.dtype, column.shape) == (reference.dtype, reference.shape)
        assert column.tobytes() == reference.tobytes()


class TestSweep:
    def test_zero_slice_row_count_and_maximum(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--resolution", "101", "--slice", "zero", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 101
        best = max(rows, key=lambda r: r["lazy_fidelity"])
        assert abs(best["lazy_fidelity"] - 0.5) < 1e-12
        assert abs(best["c11"] - 0.5) < 1e-12

    def test_pure_slice_lazy_column_vanishes(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--resolution", "21", "--slice", "pure",
            "--phase-resolution", "3", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 21 * 3
        assert max(abs(r["lazy_fidelity"]) for r in rows) < 1e-12

    @pytest.mark.parametrize("slice_", ["grid", "pure", "zero"])
    def test_lazy_column_is_lazy_fidelity_bit_for_bit(self, capsys, slice_):
        _, out, _ = run_cli(
            capsys, "sweep", "--resolution", "9", "--slice", slice_,
            "--mag-resolution", "4", "--phase-resolution", "5", "--format", "json",
        )
        for row in json.loads(out):
            c = CoefficientVector.from_components(row["c11"], complex(row["c12_re"], row["c12_im"]))
            assert row["lazy_fidelity"] == lazy_fidelity(c)

    def test_grid_cardinality(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--resolution", "5", "--mag-resolution", "4",
            "--phase-resolution", "2", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 5 * 4 * 2

    def test_rejects_tiny_resolution(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--resolution", "1")
        assert code == 1
        assert "at least 2" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "sweep", "--resolution", "7", "--format", "csv")
        _, second, _ = run_cli(capsys, "sweep", "--resolution", "7", "--format", "csv")
        assert first == second

    @pytest.mark.parametrize("prep", ["bell1", "bell3", "paut"])
    def test_rows_match_operator_path_exactly(self, capsys, prep):
        _, out, _ = run_cli(
            capsys, "sweep", "--resolution", "6", "--phase-resolution", "3",
            "--prep", prep, "--format", "csv",
        )
        u = automatic_preparation() if prep == "paut" else preparation_from_bell(int(prep[-1]))
        for row in list(csv.DictReader(io.StringIO(out))):
            c = CoefficientVector.from_components(
                float(row["c11"]), complex(float(row["c12_re"]), float(row["c12_im"]))
            )
            expected = fidelity_trace(c, renormalize(alice_prepare(u, c)))
            assert row["trace_fidelity"] == format(expected, ".17g")

    @given(
        resolution=st.integers(min_value=2, max_value=80),
        mag_resolution=st.integers(min_value=1, max_value=60),
        phase_resolution=st.integers(min_value=1, max_value=16),
        slice_=st.sampled_from(["grid", "zero", "pure"]),
    )
    def test_grid_matches_the_per_c11_loop_bit_for_bit(self, resolution, mag_resolution, phase_resolution, slice_):
        assert_grid_matches_reference(resolution, mag_resolution, phase_resolution, slice_)

    @pytest.mark.parametrize("slice_", ["grid", "zero", "pure"])
    @pytest.mark.parametrize(
        "resolution, mag_resolution",
        [
            (2, 2),  # every end point is 0
            (2, 1),
            (7, 1),  # one point per row: linspace's div == 0 branch
            (51, 1),
            (3, 60),
        ],
    )
    def test_grid_edge_cases_match_the_per_c11_loop(self, resolution, mag_resolution, slice_):
        for phase_resolution in (1, 3):
            assert_grid_matches_reference(resolution, mag_resolution, phase_resolution, slice_)

    @pytest.mark.parametrize("argv", [["sweep"], ["teleport", "--c11", "0.5", "--prep", "bell1"]])
    def test_tol_flag_removed(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--tol", "1e-9"])
        assert info.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestPautAudit:
    def test_reports_factor_norm_and_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "paut-audit", "--format", "json")
        assert code == 0
        record = json.loads(out)[0]
        assert abs(record["idempotence_factor"] - 2.0) < 1e-10
        assert abs(record["spectral_norm"] - 2.0) < 1e-10
        assert abs(record["trace"] - 2.0) < 1e-12
        spectrum = [record["eig1"], record["eig2"], record["eig3"], record["eig4"]]
        assert np.max(np.abs(np.array(spectrum) - [2, 0, 0, 0])) < 1e-10
        assert record["transformation_residual"] == 0.0

    def test_discrepancy_note_present(self, capsys):
        _, out, _ = run_cli(capsys, "paut-audit", "--format", "json")
        note = json.loads(out)[0]["note"]
        assert "not a projection" in note
        assert "+1/-1" in note


class TestAppendixCheck:
    def test_all_cases_within_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys, "appendix-check", "--samples", "100", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["prep"] for r in rows] == ["bell1", "bell2", "bell3", "bell4", "paut"]
        for row in rows:
            assert row["max_abs_diff"] < 1e-12
            assert row["within_tol"]
        paut_row = rows[-1]
        assert paut_row["expected_prenorm_ratio"] == 2.0
        assert paut_row["max_ratio_deviation"] < 1e-12

    def test_byte_identical_for_fixed_seed(self, capsys):
        _, first, _ = run_cli(capsys, "appendix-check", "--samples", "10", "--seed", "7")
        _, second, _ = run_cli(capsys, "appendix-check", "--samples", "10", "--seed", "7")
        assert first == second

    def test_reads_one_stream_of_draws_in_prep_order(self, capsys, monkeypatch):
        # The printed gaps are exact zeros for the sampler's draws, so only the
        # blocks handed to the kernel show which draws the command reads.
        seen = []

        def recording(u, coeffs):
            seen.append((u, coeffs))
            return compare_rows(u, coeffs)

        compare_rows = cli._compare_rows
        monkeypatch.setattr(cli, "_compare_rows", recording)
        code, _, _ = run_cli(capsys, "appendix-check", "--samples", "40", "--seed", "9")
        assert code == 0
        rng = np.random.default_rng(9)
        names = ["bell1", "bell2", "bell3", "bell4", "paut"]
        assert list(cli._PREPS) == names
        assert [u for u, _ in seen] == [cli._PREPS[name] for name in names]
        for _, coeffs in seen:
            expected = bloch_coefficient_rows(*SAMPLERS["mixed_uniform"](rng, 40))
            assert coeffs.tobytes() == expected.tobytes()

    def test_rejects_zero_samples(self, capsys):
        code, _, err = run_cli(capsys, "appendix-check", "--samples", "0")
        assert code == 1
        assert "at least 1" in err


class TestOutputPlumbing:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "audit.csv"
        code, out, _ = run_cli(
            capsys, "bell-audit", "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        content = target.read_text(encoding="utf-8")
        assert content.startswith("kind,i,j,residual")

    def test_table_format_default(self, capsys):
        _, out, _ = run_cli(capsys, "paut-audit")
        assert "idempotence_factor" in out.splitlines()[0]


# The dict-based renderers the CLI used before it rendered column-wise, kept
# as the reference: each row is a dict that leaves out its absent cells.


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def reference_table(rows, columns) -> str:
    header = list(columns)
    body = [[_reference_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(header[k]), *(len(line[k]) for line in body)) if body else len(header[k])
        for k in range(len(columns))
    ]
    out = io.StringIO()
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for line in body:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n")
    return out.getvalue()


def reference_csv(rows, columns) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_reference_cell(row.get(col)) for col in columns])
    return out.getvalue()


def reference_json(rows, columns) -> str:
    records = [{col: row.get(col) for col in columns if col in row} for row in rows]
    return json.dumps(records, indent=2) + "\n"


REFERENCE = {"table": reference_table, "csv": reference_csv, "json": reference_json}


def reference_render(columns, data, fmt):
    rows = [
        {col: value for col, value in zip(columns, row) if value is not None}
        for row in zip(*data)
    ]
    return REFERENCE[fmt](rows, columns)


COMMANDS = {
    "bell-audit": ["bell-audit"],
    "teleport": ["teleport", "--c11", "0.3", "--c12re", "0.458", "--prep", "bell2"],
    "teleport-paut": ["teleport", "--c11", "1", "--prep", "paut", "--no-correct"],
    "sweep": ["sweep", "--resolution", "5", "--mag-resolution", "3", "--phase-resolution", "2"],
    "paut-audit": ["paut-audit"],
    "appendix-check": ["appendix-check", "--samples", "20", "--seed", "7"],
}

# sha256 of stdout, taken from the dict-based renderers: every format of
# every subcommand stays byte-identical for a fixed flag set.
GOLDEN = {
    "bell-audit --format table": "7769ec4152cdff299a9cfd7702a7e2eb528c37d3e4d686586812cc00d3dc53b1",
    "bell-audit --format csv": "b9dc4f8300f5b54c61fcace1cf41396788d665ec8a53eb79c8bd497f839c1e52",
    "bell-audit --format json": "c659f3952adb479cde000f928f22c0083af51b6debbf1df7572e7df11b31aa7e",
    "teleport --c11 0.3 --c12re 0.458 --prep bell2 --format table":
        "369ba1d2e5eb96ed86ae9b19a87230982b83a3d8e2797be0f04e8d29c756bc81",
    "teleport --c11 0.3 --c12re 0.458 --prep bell2 --format csv":
        "a8ab34642d22e2e6068eb84d5408915ea6a76631d49466877f67aa779d645079",
    "teleport --c11 0.3 --c12re 0.458 --prep bell2 --format json":
        "afa05ffdd50f227e575c2616b1d49b8306c21f43ff303e67c57944dfe6e2faf4",
    "teleport --c11 1 --prep paut --message preagreed --no-correct --format table":
        "742e4331ecd29774a642953dd7376d071da149d676783ae89ac73951a92740d8",
    "teleport --c11 0.5 --c12im 0.25 --prep bell3 --message onebit --no-correct --format json":
        "c0d465a2550c44fb8289dd881ca4c1117cef1d11bce3fb006577fde3a39624b6",
    "sweep --resolution 5 --mag-resolution 3 --phase-resolution 2 --format table":
        "c423ad8c7fe1a96ec336c1b5d3c230990db78b11a346cc3d1e003794c9b40593",
    "sweep --resolution 5 --mag-resolution 3 --phase-resolution 2 --format csv":
        "db4ad10a703c4754d40ed862cdc744ca3d72e5bc0b1a9736b182d52e31e2e288",
    "sweep --resolution 5 --mag-resolution 3 --phase-resolution 2 --format json":
        "c9d893bcf0c225a23331e71980505ccaa72bf9fcd0141ce0b2f93c20a55c7dc3",
    "sweep --resolution 30 --phase-resolution 4 --prep bell1 --format csv":
        "0469b704de161669b4efdf500bd9bd3bce7ed7a84e0095da673c9f1802b8f164",
    "sweep --resolution 30 --phase-resolution 4 --prep paut --format csv":
        "f03404535656a75175f2bdacaaa69e6532ca4a357dbc2c84ed5e5e1b7ac5ccdb",
    "sweep --resolution 30 --phase-resolution 4 --prep bell1 --format table":
        "9302ef92262bcd0a15c0c91f0c822b43046dedd6af91ee1dd67b77a29e32da91",
    "sweep --resolution 30 --phase-resolution 4 --prep paut --format json":
        "34bdca09aaddb0e089df41ac98ff15d4cb64c857a2087b35f9174a0f6ce87a16",
    "sweep --resolution 101 --slice zero --format csv":
        "74c68622e3adc50492df921519bea5d69049e51f4fcf89961d44aa13ae8b8f81",
    "sweep --resolution 21 --slice pure --phase-resolution 3 --format json":
        "8d9b5cf32e6a1b9b8e3766f06e0b781624d819a53e41b27d6ba3537a1ed437e0",
    "sweep --resolution 2 --mag-resolution 2 --format csv":
        "7378dc6f90d117d6a2addcfe36dd9e71d3f83f258512f56934f219536a4f4cfc",
    "sweep --resolution 7 --mag-resolution 1 --phase-resolution 3 --format csv":
        "2ddf04784954ea5275500c7d334acf7f66a970d9011c4b569933e904dcba8959",
    "sweep --resolution 12 --mag-resolution 5 --phase-resolution 3 --format table":
        "44bb87c73ff30ed94bf50f4cf6eec7ef683c811b485b6fafcfb48333676adf57",
    "paut-audit --format table": "a72c5dac8b2fbfb20b42d115813fc0ac62dddf9a5e4211e09892b8a3defe8524",
    "paut-audit --format csv": "4535c6bd736e3103f466fb807ca12296000c8513427b8fdd6b792de14b408e7f",
    "paut-audit --format json": "8f0f46137a83d28dd311d7f25efae6a24c7b853294be1bf8db4c68cb307e4439",
    "appendix-check --samples 50 --seed 7 --format table":
        "4e8ae60bb0949d828bb9a79fdec0d6535d4cfd6c488feac53128dcef3163715b",
    "appendix-check --samples 50 --seed 7 --format csv":
        "515475c2d16578e484e00ecef65314dfc8bfe4fec24e43d48e50ac9ca4ea68a1",
    "appendix-check --samples 50 --seed 7 --format json":
        "60235da1d544357fc48d5d8b4f1bf5d6b28aa45d0f12373863f2c286f4738d63",
    "appendix-check --samples 1000 --seed 3 --format json":
        "d6ee04c38c1fecf9f6b24866e2d85a4f658f76138ec49db83d0b9db8725dc512",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_stdout_digest(self, capsys, command):
        code, out, err = run_cli(capsys, *command.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]

    def test_one_parser_serves_alternating_commands(self, capsys):
        # the parser is built once per process; no flag value may leak into a later call
        assert cli.build_parser() is cli.build_parser()
        for command in (
            "sweep --resolution 30 --phase-resolution 4 --prep paut --format csv",
            "teleport --c11 0.3 --c12re 0.458 --prep bell2 --format csv",
            "sweep --resolution 5 --mag-resolution 3 --phase-resolution 2 --format csv",
        ):
            code, out, err = run_cli(capsys, *command.split())
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_renderers_match_the_dict_reference(self, command, fmt):
        args = cli.build_parser().parse_args(COMMANDS[command] + ["--format", fmt])
        columns, data, _ = args.func(args)
        assert all(len(values) == len(data[0]) for values in data)
        assert cli._render(columns, data, fmt) == reference_render(columns, data, fmt)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.sampled_from('ab ,"\'\n\r\t-é'), max_size=6),
)


@st.composite
def tables(draw):
    """Column names and mixed-type column values, two columns or more as every command has."""
    columns = draw(st.lists(st.text(max_size=5), min_size=2, max_size=5, unique=True))
    n = draw(st.integers(min_value=0, max_value=4))
    data = [
        draw(st.one_of(
            st.lists(_SCALARS, min_size=n, max_size=n),
            st.lists(st.floats(), min_size=n, max_size=n),
        ))
        for _ in columns
    ]
    return tuple(columns), data


# Doubles that a table repeats, or that must keep texts apart although they
# compare equal (0.0, -0.0) or are unordered (NaNs with different payloads).
_REPEATED_FLOATS = (
    0.0,
    -0.0,
    float("nan"),
    struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0],
    float("inf"),
    float("-inf"),
    5e-324,
    0.1,
)


@st.composite
def repeating_tables(draw):
    """Tables whose float columns draw from a small pool, as lists or as float64 arrays."""
    columns = draw(st.lists(st.text(max_size=5), min_size=2, max_size=5, unique=True))
    n = draw(st.integers(min_value=0, max_value=20))
    data = []
    for _ in columns:
        values = draw(st.one_of(
            st.lists(st.sampled_from(_REPEATED_FLOATS), min_size=n, max_size=n),
            st.lists(_SCALARS, min_size=n, max_size=n),
        ))
        as_array = draw(st.booleans()) and all(type(value) is float for value in values)
        data.append(np.array(values, dtype=np.float64) if as_array else values)
    return tuple(columns), data


def as_lists(data):
    return [values.tolist() if isinstance(values, np.ndarray) else values for values in data]


class TestColumnRenderers:
    @given(table=tables(), fmt=st.sampled_from(["table", "csv", "json"]))
    def test_match_the_dict_reference(self, table, fmt):
        columns, data = table
        assert cli._render(columns, data, fmt) == reference_render(columns, data, fmt)

    @given(
        table=repeating_tables(),
        fmt=st.sampled_from(["table", "csv", "json"]),
        block_rows=st.sampled_from([1, 7, cli._CSV_BLOCK_ROWS]),
    )
    def test_repeated_floats_match_the_dict_reference(self, table, fmt, block_rows):
        columns, data = table
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
            rendered = cli._render(columns, data, fmt)
        assert rendered == reference_render(columns, as_lists(data), fmt)

    def test_distinct_bits_keep_distinct_texts(self):
        column = np.array([0.0, -0.0, 0.0, -0.0])
        assert cli._render(("x", "y"), [column, column.tolist()], "csv") == "x,y\n0,0\n-0,-0\n0,0\n-0,-0\n"

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_sweep_columns_stay_float_arrays(self, fmt):
        args = cli.build_parser().parse_args(COMMANDS["sweep"] + ["--format", fmt])
        columns, data, _ = args.func(args)
        assert all(isinstance(values, np.ndarray) and values.dtype == np.float64 for values in data)
        assert cli._render(columns, data, fmt) == cli._render(columns, as_lists(data), fmt)

    @pytest.mark.parametrize("block_rows", [1, 7, 30, 31])
    def test_csv_blocks_join_seamlessly(self, monkeypatch, block_rows):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        args = cli.build_parser().parse_args(COMMANDS["sweep"] + ["--format", "csv"])
        columns, data, _ = args.func(args)
        assert len(data[0]) == 30
        assert cli._render(columns, data, "csv") == reference_render(columns, data, "csv")

    def test_quoted_note_keeps_its_quotes(self, capsys):
        _, out, _ = run_cli(capsys, "paut-audit", "--format", "csv")
        _, record, _ = run_cli(capsys, "paut-audit", "--format", "json")
        note = json.loads(record)[0]["note"]
        assert "," in note
        assert out.splitlines()[1].endswith(f',"{note}"')
        assert list(csv.reader(io.StringIO(out)))[1][-1] == note

    def test_absent_cells(self, capsys):
        _, out, _ = run_cli(capsys, "bell-audit", "--format", "csv")
        assert out.splitlines()[-1].startswith("completeness,,,")
        _, out, _ = run_cli(capsys, "bell-audit", "--format", "json")
        assert set(json.loads(out)[-1]) == {"kind", "residual"}


class TestBadConfiguration:
    """Invalid flag values exit 1 with one error line naming the problem, never a traceback."""

    CASES = {
        "teleport --c11 0.5 --c12re 1e300 --prep bell1": "error: positivity constraint violated: |c12|^2 = inf",
        "appendix-check --seed -1": "error: --seed must be a non-negative integer",
        "teleport --c11 0.5 --prep paut --message twobits": "error: a two-bit message needs a Bell preparation, not paut",
        **{
            f"sweep --{axis}-resolution 0": "error: magnitude and phase resolutions must be at least 1"
            for axis in ("mag", "phase")
        },
        **{
            f"{command} --tol {tol}": "error: --tol must be a positive number"
            for command in ("bell-audit", "paut-audit", "appendix-check")
            for tol in ("nan", "-1", "0")
        },
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_exits_one_with_one_error_line(self, capsys, command):
        code, out, err = run_cli(capsys, *command.split())
        start = self.CASES[command]
        assert code == 1
        assert out == ""
        assert err.startswith(start)
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        ["bell-audit --seed 1", "teleport --c11 0.5 --prep bell1 --seed 1", "sweep --seed 1", "sweep --seed -1",
         "paut-audit --seed 1"],
    )
    def test_seed_outside_appendix_check_is_a_usage_error(self, capsys, command):
        # only appendix-check draws inputs, so only it has --seed; elsewhere it is an unknown flag
        with pytest.raises(SystemExit) as info:
            main(command.split())
        assert info.value.code == 2
        assert f"unrecognized arguments: {command[command.index('--seed'):]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bell-audit", "paut-audit", "appendix-check"])
    def test_infinite_tolerance_passes(self, capsys, command):
        code, _, _ = run_cli(capsys, command, "--tol", "inf")
        assert code == 0


class TestOutFailure:
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_path_exits_one(self, capsys, tmp_path, where):
        target = tmp_path / "no" / "such" / "x.csv" if where == "missing-dir" else tmp_path
        code, out, err = run_cli(
            capsys, "sweep", "--resolution", "3", "--format", "csv", "--out", str(target),
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err and err.count("\n") == 1


class TestOutOfMemory:
    """A run too large for memory exits 1 with one error line, as a bad flag does.

    A helper is made to raise before anything large is allocated: a real
    oversized allocation may succeed under memory overcommit and then be
    killed, so none is attempted.
    """

    NUMPY_MESSAGE = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"

    # command -> (namespace, name) of the helper that raises in it
    CASES = {
        "sweep --resolution 1000000": (cli, "_sweep_grid"),
        "appendix-check --samples 100000000000": (cli.SAMPLERS, "mixed_uniform"),
        "sweep --resolution 3 --format csv": (cli, "_render_csv"),
        "bell-audit --format json": (cli, "_render_json"),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    @pytest.mark.parametrize("message", [NUMPY_MESSAGE, ""])
    def test_exits_one_with_one_error_line(self, capsys, monkeypatch, command, message):
        def out_of_memory(*_):
            raise MemoryError(message)

        namespace, name = self.CASES[command]
        if isinstance(namespace, dict):
            monkeypatch.setitem(namespace, name, out_of_memory)
        else:
            monkeypatch.setattr(namespace, name, out_of_memory)
        code, out, err = run_cli(capsys, *command.split())
        assert code == 1
        assert out == ""
        assert err == (f"error: out of memory: {message}\n" if message else "error: out of memory\n")
