import json
from fractions import Fraction

import numpy as np
import pytest

from expected import MU_TRI_10
from trimobius import (
    MobiusVector,
    SequenceKind,
    SeriesReport,
    abs_sums,
    cli,
    mertens_tri,
    mobius_one_var,
    ratio_sums_index,
    ratio_sums_triangular,
)
from trimobius.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMobiusCommand:
    def test_bfile_output(self, capsys):
        code, out, _ = run(capsys, "mobius", "--kind", "triangular", "-n", "10",
                           "--format", "bfile")
        assert code == 0
        assert out == "1 1\n2 -1\n3 0\n4 -1\n5 0\n6 0\n7 -1\n8 0\n9 0\n10 -1\n"

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "mobius", "-n", "3", "--format", "csv")
        assert code == 0
        assert out == "1,1\n2,-1\n3,0\n"

    def test_identity_kind(self, capsys):
        code, out, _ = run(capsys, "mobius", "--kind", "identity", "-n", "6",
                           "--format", "json")
        assert code == 0
        assert out == '{"kind": "identity", "values": [1, -1, -1, 0, -1, 1]}\n'

    def test_zero_limit_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["mobius", "-n", "0"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "mu.txt"
        code, out, _ = run(capsys, "mobius", "-n", "3", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == "1 1\n2 -1\n3 0\n"

    def test_unwritable_out_path(self, capsys):
        code, _, err = run(capsys, "mobius", "-n", "3", "--out",
                           "/nonexistent-dir/mu.txt")
        assert code == 1
        assert "error" in err

    def test_memory_error_is_one_line(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_sums", exhausted)
        code, out, err = run(capsys, "sums", "-n", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSeriesCommands:
    def test_sums_bfile(self, capsys):
        code, out, _ = run(capsys, "sums", "-n", "3", "--format", "bfile")
        assert code == 0
        assert out == "1 1\n2 0\n3 0\n"

    def test_abs_sums_final(self, capsys):
        code, out, _ = run(capsys, "abs-sums", "-n", "10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["final_value"] == 5
        assert payload["slope_estimate"] == 0.5

    def test_ratio_sums_csv(self, capsys):
        code, out, _ = run(capsys, "ratio-sums", "-n", "2", "--format", "csv")
        assert code == 0
        assert out == "1,1\n2,0.5\n"

    def test_ratio_sums_value_denominator(self, capsys):
        code, out, _ = run(capsys, "ratio-sums", "-n", "2", "--denom", "value",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["final_value"] - 2 / 3) < 1e-12

    def test_ratio_sums_rejects_bfile(self):
        with pytest.raises(SystemExit) as exc:
            main(["ratio-sums", "-n", "5", "--format", "bfile"])
        assert exc.value.code == 2

    def test_svg_format(self, capsys):
        code, out, _ = run(capsys, "sums", "-n", "50", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg") and out.endswith("</svg>\n")


def _reference_payload(report):
    """The series payload that json.dumps(..., indent=2) used to write whole."""
    payload = {
        "name": report.name,
        "xs": list(range(1, len(report) + 1)),
        "ys": report.ys.tolist(),
        "slope_estimate": cli._jsonable(report.slope_estimate),
        "slope_lsq": report.slope_lsq,
        "final_value": cli._jsonable(report.final_value),
    }
    if isinstance(report.slope_estimate, Fraction):
        payload["slope_estimate_exact"] = str(report.slope_estimate)
    n = len(report)
    if n >= 2:
        payload["drift_last_half"] = abs(float(report.ys[-1]) - float(report.ys[n // 2 - 1]))
    return payload


class TestSeriesJson:
    @pytest.fixture(scope="class")
    def mu(self, tri_poset):
        return mobius_one_var(tri_poset, 2000)

    def _check(self, report):
        pieces = list(cli._series_json(report))
        assert all(type(piece) is str for piece in pieces)
        assert "".join(pieces) == json.dumps(_reference_payload(report), indent=2) + "\n"

    def test_integer_series(self, mu):
        self._check(mertens_tri(mu))
        self._check(abs_sums(mu))

    def test_fraction_then_float_series(self, mu, monkeypatch):
        # float() of the exact sums through exact_limit, compensated floats after
        for report in (ratio_sums_index(mu, exact_limit=700),
                       ratio_sums_triangular(mu, exact_limit=1500)):
            assert report.ys.dtype == np.float64
            assert isinstance(report.slope_estimate, float)
            self._check(report)
        exact = ratio_sums_index(mu, exact_limit=2000)
        assert isinstance(exact.final_value, Fraction)
        self._check(exact)
        # pieces of 7 rows: the separators between blocks
        monkeypatch.setattr(cli, "_PIECE_ROWS", 7)
        self._check(exact)
        assert len(list(cli._series_json(exact))) > 2000 // 7

    def test_one_element_series(self):
        one = MobiusVector(kind=SequenceKind.TRIANGULAR, values=np.array([0, 1]))
        for report in (mertens_tri(one), abs_sums(one), ratio_sums_index(one)):
            assert len(report) == 1
            self._check(report)

    def test_hand_built_series(self):
        floats = np.array([-(2.0**53) - 2, 1 / 3, 0.1, -0.0, 1e-300, 5e22, -7.5])
        ints = np.array([2**62 + 1, -(2**53) - 1, -(2**63), 0, 7])
        for ys in (floats, ints, np.array([0.5, -1e-7, 3.0]), np.array([])):
            report = SeriesReport(name='odd "name"', ys=ys, slope_estimate=Fraction(2, 7),
                                  slope_lsq=-1.5e-7, final_value=ys[-1].item() if len(ys) else 0)
            self._check(report)


class TestEmit:
    def test_stdout_and_file_get_the_same_bytes(self, capsys, tmp_path):
        for argv in (["ratio-sums", "-n", "300", "--format", "csv"],
                     ["ratio-sums", "-n", "300", "--denom", "value", "--format", "json"],
                     ["sums", "-n", "300", "--format", "csv"],
                     ["hasse", "-n", "30"], ["props", "--max-n", "30"]):
            code, out, _ = run(capsys, *argv)
            path = tmp_path / "out.txt"
            assert code == 0 and main([*argv, "--out", str(path)]) == 0
            assert path.read_text(encoding="utf-8") == out and out

    def test_ratio_csv_rows(self, monkeypatch):
        report = ratio_sums_index(MobiusVector(SequenceKind.IDENTITY, np.array([0, 1, -1, -1, 0])))
        expected = [f"{x},{float(y):.12g}\n" for x, y in enumerate(report.ys.tolist(), 1)]
        monkeypatch.setattr(cli, "_PIECE_ROWS", 3)
        assert list(cli._series_csv(report)) == ["".join(expected[:3]), "".join(expected[3:])]


class TestMatrixCommands:
    def test_zeta_matches_fixture(self, capsys):
        code, out, _ = run(capsys, "zeta-matrix", "--kind", "triangular", "-n", "10")
        assert code == 0
        rows = [[int(v) for v in line.split(",")] for line in out.splitlines()]
        from expected import ZETA_TRI_10

        assert rows == ZETA_TRI_10

    def test_mobius_matrix_first_column(self, capsys):
        code, out, _ = run(capsys, "mobius-matrix", "-n", "10")
        assert code == 0
        rows = [[int(v) for v in line.split(",")] for line in out.splitlines()]
        assert [r[0] for r in rows] == MU_TRI_10

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "zeta-matrix", "-n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"] == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]


class TestGraphCommands:
    def test_hasse_dot(self, capsys):
        code, out, _ = run(capsys, "hasse", "-n", "20")
        assert code == 0
        assert "5 -> 14;" in out
        assert "5 -> 20;" not in out

    def test_heatmap(self, capsys):
        code, out, _ = run(capsys, "heatmap", "-n", "10", "--matrix", "zeta")
        assert code == 0
        assert "#b2182b" not in out  # zeta never goes red

    def test_heatmap_cap(self, capsys):
        code, _, err = run(capsys, "heatmap", "-n", "1001")
        assert code == 1
        assert "cap" in err

    def test_heatmap_unknown_matrix_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["heatmap", "-n", "5", "--matrix", "sigma"])
        assert exc.value.code == 2


class TestDenseCap:
    @pytest.mark.parametrize("command", ["zeta-matrix", "mobius-matrix", "verify", "heatmap"])
    def test_beyond_cap_is_one_line_error(self, capsys, command):
        code, out, err = run(capsys, command, "-n", "1001")
        assert code == 1
        assert out == ""
        assert err == "error: dense matrix size 1001 exceeds the cap DENSE_CAP = 1000\n"


class TestRecordsCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "records", "-n", "1500")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "magnitude,first_geq,first_eq"
        assert lines[1] == "1,1,1"
        assert lines[2] == "2,44,44"
        assert lines[3] == "3,272,272"
        assert lines[4] == "4,1274,1274"

    def test_signed_flag(self, capsys):
        code, out, _ = run(capsys, "records", "-n", "1500", "--signed",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0] == {"magnitude": 1, "first_geq": 1, "first_eq": 1}


class TestPropsCommand:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "props", "--max-n", "500")
        assert code == 0
        assert "prop1 OK" in out
        assert "prop2 OK" in out


class TestClassicalCommand:
    def test_mobius_values(self, capsys):
        code, out, _ = run(capsys, "classical", "-n", "6", "--format", "csv")
        assert code == 0
        assert out == "1,1\n2,-1\n3,-1\n4,0\n5,-1\n6,1\n"

    def test_mertens(self, capsys):
        code, out, _ = run(capsys, "classical", "-n", "10", "--series", "mertens",
                           "--format", "bfile")
        assert code == 0
        assert out.splitlines()[-1] == "10 -1"

    def test_json_values(self, capsys):
        code, out, _ = run(capsys, "classical", "-n", "6", "--format", "json")
        assert code == 0
        assert out == '{"values": [1, -1, -1, 0, -1, 1]}\n'

    def test_mobius_series_rejects_svg(self, capsys):
        code, out, err = run(capsys, "classical", "-n", "6", "--format", "svg")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_ok_at_small_n(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "60")
        assert code == 0
        assert out == "OK\n"


class TestOeisDiffCommand:
    def test_bundled_mobius_match(self, capsys):
        code, out, _ = run(capsys, "oeis-diff", "--series", "mobius")
        assert code == 0
        assert "match" in out

    def test_bundled_sums_match(self, capsys):
        code, out, _ = run(capsys, "oeis-diff", "--series", "sums")
        assert code == 0
        assert "match" in out

    def test_corrupted_reference(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n2 -1\n3 99\n")
        code, out, _ = run(capsys, "oeis-diff", "--bfile", str(bad), "-n", "3")
        assert code == 1
        assert "mismatch at index 3" in out

    def test_corrupted_sums_reference(self, capsys, tmp_path):
        bad = tmp_path / "bad-sums.txt"
        bad.write_text("1 1\n2 0\n3 0\n4 -5\n")
        code, out, _ = run(capsys, "oeis-diff", "--series", "sums", "--bfile", str(bad))
        assert code == 1
        assert out == "mismatch at index 4: reference -5, computed -1\n"

    def test_identity_without_bfile_is_usage_error(self, capsys):
        code, _, err = run(capsys, "oeis-diff", "--kind", "identity")
        assert code == 2
        assert "bundled" in err
