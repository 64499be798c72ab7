import argparse
import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from expected import MU_TRI_10
from trimobius import (
    DivisibilityPoset,
    MobiusVector,
    SequenceKind,
    SeriesReport,
    ZetaMatrix,
    abs_sums,
    bfile,
    classical_mertens,
    classical_mobius,
    cli,
    invert_zeta,
    magnitude_records,
    mertens_tri,
    mobius_one_var,
    ratio_sums_index,
    ratio_sums_triangular,
    svg,
    zeta_matrix,
)
from trimobius import poset as poset_module
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

    def test_memory_error_is_one_line(self, capsys, monkeypatch, tmp_path):
        def exhausted(vec):
            raise MemoryError

        monkeypatch.setattr(cli.analysis, "mertens_tri", exhausted)
        code, out, err = run(capsys, "sums", "-n", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        # --out is opened before the computation, which leaves it empty
        path = tmp_path / "sums.txt"
        assert run(capsys, "sums", "-n", "10", "--out", str(path))[0] == 1
        assert path.read_text() == ""

    @pytest.mark.parametrize("argv, module, name", [
        (["sums", "-n", "1000"], "mobius", "mobius_one_var"),
        (["ratio-sums", "-n", "1000", "--format", "json"], "mobius", "mobius_one_var"),
        (["classical", "-n", "1000"], "analysis", "classical_mobius"),
        (["props", "--max-n", "1000"], "props", "scan_range"),
    ])
    def test_out_path_fails_before_the_computation(self, capsys, monkeypatch, argv, module,
                                                   name):
        calls = []
        monkeypatch.setattr(getattr(cli, module), name, lambda *args: calls.append(args))
        code, out, err = run(capsys, *argv, "--out", "/no/such/dir/x")
        assert (code, out, calls) == (1, "", [])
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

    @pytest.mark.parametrize("command", ["sums", "abs-sums"])
    def test_sums_past_int64_is_one_line_error(self, capsys, monkeypatch, command):
        # one |mu| = 2**62 among 50 terms: the bound of the partial sums,
        # 50 * 2**62, leaves int64, so no sum is taken and nothing written
        real = cli.mobius.mobius_one_var

        def huge(poset, n=None):
            vec = real(poset, n)
            values = vec.values.astype(np.int64)  # mu comes as int8
            values[17] = 2**62
            return MobiusVector(kind=vec.kind, values=values)

        monkeypatch.setattr(cli.mobius, "mobius_one_var", huge)
        code, out, err = run(capsys, command, "-n", "50")
        assert (code, out) == (1, "")
        assert err == (
            f"error: integers up to {2**62 * 50} in magnitude leave the signed 64-bit range\n"
        )


def _as_float(value):
    return float(value) if isinstance(value, Fraction) else value


def _reference_payload(report):
    """The series payload that json.dumps(..., indent=2) used to write whole."""
    payload = {
        "name": report.name,
        "xs": list(range(1, len(report) + 1)),
        "ys": report.ys.tolist(),
        "slope_estimate": _as_float(report.slope_estimate),
        "slope_lsq": report.slope_lsq,
        "final_value": _as_float(report.final_value),
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
        pieces = list(cli._SERIES["json"](report))
        assert all(type(piece) is str for piece in pieces)
        assert "".join(pieces) == json.dumps(_reference_payload(report), indent=2) + "\n"

    def test_integer_series(self, mu):
        self._check(mertens_tri(mu))
        self._check(abs_sums(mu))

    def test_fraction_then_float_series(self, mu, monkeypatch):
        # float() of the exact sums through EXACT_RATIO_LIMIT, compensated floats after
        for limit, ratio_sums in ((700, ratio_sums_index), (1500, ratio_sums_triangular)):
            monkeypatch.setattr(cli.analysis, "EXACT_RATIO_LIMIT", limit)
            report = ratio_sums(mu)
            assert report.ys.dtype == np.float64
            assert isinstance(report.slope_estimate, float)
            self._check(report)
        monkeypatch.setattr(cli.analysis, "EXACT_RATIO_LIMIT", 2000)
        exact = ratio_sums_index(mu)
        assert isinstance(exact.final_value, Fraction)
        self._check(exact)
        # pieces of 7 rows: the separators between blocks
        monkeypatch.setattr(cli, "_PIECE_ROWS", 7)
        self._check(exact)
        assert len(list(cli._SERIES["json"](exact))) > 2000 // 7

    def test_one_element_series(self):
        one = MobiusVector(kind=SequenceKind.TRIANGULAR, values=np.array([0, 1]))
        for report in (mertens_tri(one), abs_sums(one), ratio_sums_index(one)):
            assert len(report) == 1
            self._check(report)

    def test_hand_built_series(self):
        floats = np.array([-(2.0**53) - 2, 1 / 3, 0.1, -0.0, 1e-300, 5e22, -7.5])
        ints = np.array([2**62 + 1, -(2**53) - 1, -(2**63), 0, 7])
        arrays = (floats, ints, np.array([0.5, -1e-7, 3.0]), np.array([]),
                  np.array([], dtype=np.int64))
        # names that look like a key of the payload or like the writer's marker
        for name in ('odd "name"', "ys", "xs", "", "\0", "\0" * 300, '"ys": "\0"'):
            for ys in arrays:
                report = SeriesReport(name=name, ys=ys, slope_estimate=Fraction(2, 7),
                                      slope_lsq=-1.5e-7,
                                      final_value=ys[-1].item() if len(ys) else 0)
                self._check(report)


def _records_payload(table):
    rows = [{"magnitude": r.magnitude, "first_geq": r.first_at_least, "first_eq": r.first_equal}
            for r in table.rows]
    return {"signed": table.signed, "rows": rows}


# Each JSON-writing command -> (its payload from the library's values at mu or
# n, the indent json.dumps lays it out with).
_JSON_COMMANDS = {
    "sums": lambda mu, n: (_reference_payload(mertens_tri(mu)), 2),
    "abs-sums": lambda mu, n: (_reference_payload(abs_sums(mu)), 2),
    "ratio-sums --denom index": lambda mu, n: (_reference_payload(ratio_sums_index(mu)), 2),
    "ratio-sums --denom value": lambda mu, n: (_reference_payload(ratio_sums_triangular(mu)), 2),
    "mobius": lambda mu, n: ({"kind": mu.kind.value, "values": mu.values[1:].tolist()}, None),
    "zeta-matrix": lambda mu, n: (
        {"n": n, "rows": zeta_matrix(DivisibilityPoset(mu.kind, n), n).array.tolist()}, None),
    "mobius-matrix": lambda mu, n: ({"n": n, "rows": invert_zeta(
        zeta_matrix(DivisibilityPoset(mu.kind, n), n)).array.tolist()}, None),
    "records": lambda mu, n: (_records_payload(magnitude_records(mu)), 2),
    "records --signed": lambda mu, n: (_records_payload(magnitude_records(mu, signed=True)), 2),
}


class TestJsonOutputs:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 15])
    @pytest.mark.parametrize("command", [
        *(f"{c} --kind {k.value}" for c in _JSON_COMMANDS for k in SequenceKind),
        "classical --series mobius", "classical --series mertens",
    ])
    def test_output_is_json_dumps_of_the_payload(self, capsys, monkeypatch, command, n):
        # pieces and integer blocks of 7 rows, so separators also fall between them
        monkeypatch.setattr(cli, "_PIECE_ROWS", 7)
        monkeypatch.setattr(bfile, "_BLOCK_ROWS", 7)
        if command == "classical --series mobius":
            payload, indent = {"values": classical_mobius(n).values[1:].tolist()}, None
        elif command == "classical --series mertens":
            payload, indent = _reference_payload(classical_mertens(classical_mobius(n))), 2
        else:
            name, kind = command.split(" --kind ")
            mu = mobius_one_var(DivisibilityPoset(SequenceKind(kind), n), n)
            payload, indent = _JSON_COMMANDS[name](mu, n)
        code, out, _ = run(capsys, *command.split(), "-n", str(n), "--format", "json")
        assert code == 0
        assert out == json.dumps(payload, indent=indent) + "\n"


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

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 4095, 4096, 4097])
    def test_streams_equal_the_whole_output(self, capsys, tmp_path, monkeypatch, n):
        monkeypatch.setattr(svg, "_POINT_CHUNK", 7)
        monkeypatch.setattr(bfile, "_BLOCK_ROWS", 7)
        mu = {kind: mobius_one_var(DivisibilityPoset(kind, n), n) for kind in SequenceKind}
        tri = mu[SequenceKind.TRIANGULAR]
        classical = classical_mobius(n)
        expected = {
            "sums --format svg": svg.svg_line_chart(mertens_tri(tri)),
            "abs-sums --format svg": svg.svg_line_chart(abs_sums(tri)),
            "ratio-sums --format svg": svg.svg_line_chart(ratio_sums_index(tri)),
            # the list path writes each line with str.format
            "sums --format bfile": bfile.format_bfile(mertens_tri(tri).ys.tolist()),
            "abs-sums --format bfile": bfile.format_bfile(abs_sums(tri).ys.tolist()),
            "classical --series mertens --format bfile":
                bfile.format_bfile(classical_mertens(classical).ys.tolist()),
            "classical --series mobius --format json":
                json.dumps({"values": classical.values[1:].tolist()}) + "\n",
        }
        for kind, vec in mu.items():
            payload = {"kind": kind.value, "values": vec.values[1:].tolist()}
            expected[f"mobius --kind {kind.value} --format json"] = json.dumps(payload) + "\n"
        path = tmp_path / "out.txt"
        for command, text in expected.items():
            argv = [*command.split(), "-n", str(n)]
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out == text, command
            assert main([*argv, "--out", str(path)]) == 0
            assert path.read_text(encoding="utf-8") == text, command

    @pytest.mark.parametrize("argv, code", [
        (["classical", "-n", "5", "--format", "svg"], 2),
        (["zeta-matrix", "-n", "1001"], 1),
        (["heatmap", "-n", "1001"], 1),
    ])
    def test_refused_command_leaves_no_output(self, capsys, tmp_path, argv, code):
        # a usage error comes before --out is opened; a refusal by the
        # computation after it, which leaves the file empty
        path = tmp_path / "out.txt"
        assert main([*argv, "--out", str(path)]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert path.exists() == (code == 1)
        assert code == 2 or path.read_text() == ""

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

    @pytest.mark.parametrize("kind", SequenceKind, ids=lambda k: k.value)
    @pytest.mark.parametrize("n", [1, 2, 400])
    def test_json_is_json_dumps(self, capsys, monkeypatch, kind, n):
        # blocks of 7 rows, so the row separator also falls between blocks
        monkeypatch.setattr(bfile, "_BLOCK_ROWS", 7)
        zeta = zeta_matrix(DivisibilityPoset(kind, n), n)
        for command, matrix in (("zeta-matrix", zeta), ("mobius-matrix", invert_zeta(zeta))):
            argv = [command, "--kind", kind.value, "-n", str(n), "--format", "json"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out == json.dumps({"n": n, "rows": matrix.array.tolist()}) + "\n", command


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

    def test_verify_refuses_before_building(self, capsys, monkeypatch):
        def build(self, n):
            raise AssertionError("a predecessor table was built")

        monkeypatch.setattr(cli.DivisibilityPoset, "predecessor_table", build)
        code, out, err = run(capsys, "verify", "-n", "300000")
        assert (code, out) == (1, "")
        assert err == "error: dense matrix size 300000 exceeds the cap DENSE_CAP = 1000\n"


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

    def test_format_is_checked_before_the_sieve(self, capsys, monkeypatch):
        def sieve(n):
            raise AssertionError("the sieve ran before the usage check")

        monkeypatch.setattr(cli.analysis, "classical_mobius", sieve)
        code, out, err = run(capsys, "classical", "-n", "20000000", "--series", "mobius",
                             "--format", "svg")
        assert (code, out) == (2, "")
        assert err == "error: --format svg does not apply here; use one of bfile, csv, json\n"


class TestVerifyCommand:
    def test_ok_at_small_n(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "60")
        assert code == 0
        assert out == "OK\n"

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_ok_below_first_zero_sum_row(self, capsys, n):
        assert run(capsys, "verify", "-n", n)[:2] == (0, "OK\n")

    @pytest.mark.parametrize("k", [2, 17, 50])
    def test_reports_first_broken_zero_sum(self, capsys, monkeypatch, k):
        # mu(k) altered: the rows below k still sum to zero, row k does not
        real = cli.mobius.mobius_one_var

        def altered(poset, n=None):
            vec = real(poset, n)
            if poset.kind is not SequenceKind.TRIANGULAR:
                return vec
            values = vec.values.copy()
            values[k] += 1
            return MobiusVector(kind=vec.kind, values=values)

        monkeypatch.setattr(cli.mobius, "mobius_one_var", altered)
        code, out, _ = run(capsys, "verify", "-n", "50")
        assert code == 1
        assert out == f"FAIL: triangular: zero-sum broken at n={k}\n"

    def test_reports_a_row_summing_to_256(self, capsys, monkeypatch):
        # mu(17) raised by 256, in int16: row 17 sums to 256, which int8 wraps to 0
        real = cli.mobius.mobius_one_var

        def raised(poset, n=None):
            vec = real(poset, n)
            if poset.kind is not SequenceKind.TRIANGULAR:
                return vec
            values = vec.values.astype(np.int16)
            values[17] += 256
            return MobiusVector(kind=vec.kind, values=values)

        monkeypatch.setattr(cli.mobius, "mobius_one_var", raised)
        code, out, _ = run(capsys, "verify", "-n", "50")
        assert code == 1
        assert out == "FAIL: triangular: zero-sum broken at n=17\n"

    @pytest.mark.memory
    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_holds_a_block_of_the_relation(self, kind):
        # the 1 MB int8 zeta matrix and blocks of rows; the whole n x n
        # relation took ~9.6 MB, an 8 MB uint64 remainder among it
        tracemalloc.start()
        try:
            failures = list(cli._verify_kind(kind, 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failures == []
        assert peak < 3 << 20

    @pytest.mark.parametrize(
        "dropped, lines",
        [
            # T(3) = 6 divides T(8) = 36; as mu_T(3) = 0, mu is unchanged
            (3, ["predecessor row 8 differs"]),
            # T(2) = 3 divides T(3) = 6; without it the recursion gives mu_T(3) = -1
            (2, ["predecessor row 3 differs", "zero-sum broken at n=3"]),
        ],
    )
    def test_reports_a_table_missing_an_element(self, capsys, monkeypatch, dropped, lines):
        real = poset_module._triangular_hits

        def hits(v):
            positions, k = real(v)
            keep = k != dropped
            return positions[keep], k[keep]

        monkeypatch.setattr(poset_module, "_triangular_hits", hits)
        code, out, _ = run(capsys, "verify", "-n", "200")
        assert code == 1
        assert out == "".join(f"FAIL: triangular: {line}\n" for line in lines)

    @pytest.mark.parametrize("i, j", [(2, 5), (4, 4), (7, 0)])
    def test_reports_a_zeta_entry_off_the_relation(self, capsys, monkeypatch, i, j):
        # above the diagonal, on it, and below it
        real = cli.mobius.zeta_matrix

        def flipped(poset, n):
            z = real(poset, n).array.copy()
            z[i, j] ^= 1
            return ZetaMatrix(z)

        monkeypatch.setattr(cli.mobius, "zeta_matrix", flipped)
        code, out, _ = run(capsys, "verify", "-n", "30")
        assert code == 1
        assert out == (
            f"FAIL: triangular: predecessor row {i + 1} differs\n"
            f"FAIL: identity: predecessor row {i + 1} differs\n"
        )

    def test_reports_identity_off_the_classical_sieve(self, capsys, monkeypatch):
        real = cli.analysis.classical_mobius

        def sieve(n):
            vec = real(n)
            values = vec.values.copy()
            values[7] = -values[7]  # mu(7) = -1
            return MobiusVector(kind=vec.kind, values=values)

        monkeypatch.setattr(cli.analysis, "classical_mobius", sieve)
        expected = "FAIL: identity kind disagrees with the classical sieve\n"
        assert run(capsys, "verify", "-n", "30")[:2] == (1, expected)
        # with a zeta row off the relation too, the triangular line comes
        # first, and the sieve line after the identity kind's other line
        real_zeta = cli.mobius.zeta_matrix

        def flipped(poset, n):
            z = real_zeta(poset, n).array.copy()
            z[4, 1] ^= 1
            return ZetaMatrix(z)

        monkeypatch.setattr(cli.mobius, "zeta_matrix", flipped)
        assert run(capsys, "verify", "-n", "30")[:2] == (1, (
            "FAIL: triangular: predecessor row 5 differs\n"
            "FAIL: identity: predecessor row 5 differs\n" + expected))

    def test_refuses_zero_sums_that_could_wrap(self, capsys, monkeypatch):
        # one |mu| = 2**62: a row of 50 such terms could leave int64, so no
        # zero sum is taken, and none is reported broken
        real = cli.mobius.mobius_one_var

        def huge(poset, n=None):
            vec = real(poset, n)
            if poset.kind is not SequenceKind.TRIANGULAR:
                return vec
            values = vec.values.astype(np.int64)  # mu comes as int8
            values[17] = -(2**62)
            return MobiusVector(kind=vec.kind, values=values)

        monkeypatch.setattr(cli.mobius, "mobius_one_var", huge)
        code, out, _ = run(capsys, "verify", "-n", "50")
        assert code == 1
        assert out == (
            f"FAIL: triangular: zero sums may reach {2**62 * 50}, beyond int64\n"
        )


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

    def test_bfile_ending_at_index_0_has_empty_overlap(self, capsys, tmp_path):
        ref = tmp_path / "zero.txt"
        ref.write_text("0 1\n")
        code, out, err = run(capsys, "oeis-diff", "--bfile", str(ref))
        assert (code, out) == (1, "")
        assert err == "error: empty overlap: reference covers 0..0, computed covers 1..1\n"

    def test_identity_without_bfile_is_usage_error(self, capsys):
        code, _, err = run(capsys, "oeis-diff", "--kind", "identity")
        assert code == 2
        assert "bundled" in err


# SHA-256 of each parser's --help text at 100 columns, "" being the top-level
# parser, in argparse's layout up to Python 3.12 (3.13 writes "-n, --limit
# LIMIT"); the golden suite runs commands, so only this pins the help
HELP_SHA256 = {
    "": "f6f220bb843cf23c409d684720fd7a06e0e98a9f9b9d6a28fe23059e668411f5",
    "mobius": "972cc13d615ce09a8928a5a4ddba457d9e53e244f337d1263c7cfc899496e5ff",
    "sums": "b4a093a40483ff9a2d43c083e7a0df836795451df66558b737581b507de6ecce",
    "abs-sums": "5483e9103eff0c1d29de8d43a707b9b0b4411481c70b0dfdc940b36c9818f178",
    "ratio-sums": "2fb71642ce0afc8467cb4695802afafe76c53ba5a8ebac3a074189394f24a16d",
    "zeta-matrix": "f554a581adb2135674419b0c3d945e328a6e4996fce724ced1868b9c7d5aa80e",
    "mobius-matrix": "dc5ce0bfda84bfa158253a8afe6a1c331291cb4a6e1a3d4ea17f4c6110520699",
    "hasse": "816a230f96b36a3a78a52c5d7339ea231ed5b9651a6ea7d9b0189a51d2569232",
    "heatmap": "5cece58287488c0ee66b194ab1aa09f5789dce896468cb8d236b6a851df8523d",
    "records": "587046c1bf61ab4661d2eb4e3229ab3207d31f781baf359a4d8b32e1aac68636",
    "props": "6c265f80b3981eba057f329ad6a6eb9289e54565903de8288593f3f3544bef88",
    "classical": "5a9499a9148723b7706af40ecd64f1c0e12a5ab49ed3c4416c1d4c0937fdf654",
    "verify": "7bbe1bcdea17429c4f0ecb564d07298f0f8f2c3a6cee9e361b78ea5a0eb3134a",
    "oeis-diff": "3fd46d4c290f3158f7e84d6b2351b85f73b67f9b27ccfc34c95d3562d384ea73",
}


class TestHelpText:
    def test_every_help_text_is_pinned(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        helps = {"": parser.format_help()}
        helps.update((name, p.format_help()) for name, p in sub.choices.items())
        digests = {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in helps.items()}
        # dict order is the subcommand order
        assert list(digests.items()) == list(HELP_SHA256.items())
