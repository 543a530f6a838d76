import csv
import io
import json

import numpy as np
import pytest

from ensemble_teleport import (
    CoefficientVector,
    alice_prepare,
    automatic_preparation,
    fidelity_trace,
    lazy_fidelity,
    preparation_from_bell,
    renormalize,
)
from ensemble_teleport.cli import main


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
