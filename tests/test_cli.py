"""Tests for the command-line interface: output shapes and exit codes."""

import csv
import io
import json
import math

import numpy as np
import pytest

from caputofd.cli import _cell, run
from caputofd.analysis import CellCheck, ComparisonReport
from caputofd.caputo import function_catalog
from caputofd.golden_data import golden_catalog
from caputofd.relaxation import NS_LABELS
from caputofd.schemes import SchemeId, expansion_coefficients
from caputofd.specfun import gamma

EXPECTED_L1_N2_LINES = ["0,1.0", "1,-0.5857864376269049", "2,-0.41421356237309515"]
EXPECTED_T10_II_ROW = (0.003125, 7.613373620429797e-08, 2.4945293419373056)


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeights:
    def test_l1_alpha_half_n2(self, capsys):
        code, out, _ = _run(capsys, "weights", "--scheme", "l1", "--alpha", "0.5", "--n", "2")
        assert code == 0
        assert out.splitlines() == EXPECTED_L1_N2_LINES

    def test_ns_alias_matches_plain_name(self, capsys):
        code_a, out_a, _ = _run(capsys, "weights", "--scheme", "NS[1]", "--alpha", "0.5", "--n", "6")
        code_b, out_b, _ = _run(capsys, "weights", "--scheme", "l1", "--alpha", "0.5", "--n", "6")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_json_format(self, capsys):
        code, out, _ = _run(
            capsys, "weights", "--scheme", "l1", "--alpha", "0.5", "--n", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scheme"] == "l1"
        assert payload["n"] == 2
        assert payload["norm"] == pytest.approx(gamma(1.5), rel=1e-15)
        assert payload["weights"] == pytest.approx([1.0, 2**0.5 - 2.0, 1.0 - 2**0.5])

    def test_unknown_scheme_lists_options(self, capsys):
        code, out, err = _run(capsys, "weights", "--scheme", "nope", "--alpha", "0.5", "--n", "4")
        assert code == 1
        assert out == ""
        assert "mid2malpha" in err and "ns[13]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("weights", "--scheme", "l1", "--alpha", "1.5", "--n", "4"),
            ("weights", "--scheme", "l1", "--alpha", "0.5", "--n", "1"),
            ("weights", "--scheme", "l1", "--alpha", "x", "--n", "4"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = _run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")


class TestCoeffs:
    def test_grid_rows(self, capsys):
        code, out, _ = _run(capsys, "coeffs", "--alpha-grid", "0.25:0.75:0.25")
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["alpha", "C1", "C9", "C12"]
        assert [r[0] for r in rows[1:]] == ["0.25", "0.5", "0.75"]
        for r in rows[1:]:
            alpha = float(r[0])
            c = expansion_coefficients(alpha)
            assert float(r[1]) == pytest.approx(c.c1, rel=1e-15)
            assert float(r[2]) == pytest.approx(c.c9, rel=1e-15)
            assert float(r[3]) == pytest.approx(c.c12, rel=1e-15)
            assert float(r[3]) < min(float(r[1]), float(r[2]))

    def test_json_shape(self, capsys):
        code, out, _ = _run(capsys, "coeffs", "--alpha-grid", "0.4:0.6:0.2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [row["alpha"] for row in payload["rows"]] == [0.4, 0.6]
        assert set(payload["rows"][0]) == {"alpha", "C1", "C9", "C12"}

    @pytest.mark.parametrize(
        "grid", ["0.5", "a:b:c", "0.9:0.1:0.1", "0.1:0.9:-0.1", "0:0.5:0.25"]
    )
    def test_bad_grids(self, capsys, grid):
        code, _, err = _run(capsys, "coeffs", "--alpha-grid", grid)
        assert code == 1
        assert err.startswith("error:")


class TestCaputo:
    def test_fourth_order_single_value(self, capsys):
        code, out, _ = _run(
            capsys, "caputo", "--fourth-order", "--function", "log1p",
            "--alpha", "0.4", "--x", "2", "--h", "0.0125",
        )
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["value", "reference", "error"]
        value, reference, error = map(float, rows[1])
        assert error == pytest.approx(3.1e-11, rel=5e-2)
        assert abs(value - reference) == pytest.approx(error / abs(gamma(-0.4)), rel=1e-12)

    def test_scheme_and_fourth_order_are_exclusive(self, capsys):
        base = ("caputo", "--function", "exp", "--alpha", "0.5", "--x", "1", "--h", "0.125")
        code_both, _, _ = _run(capsys, *base, "--scheme", "l1", "--fourth-order")
        code_neither, _, _ = _run(capsys, *base)
        assert code_both == 1 and code_neither == 1

    def test_unknown_function_lists_options(self, capsys):
        code, _, err = _run(
            capsys, "caputo", "--fourth-order", "--function", "sinh",
            "--alpha", "0.5", "--x", "1", "--h", "0.125",
        )
        assert code == 1
        assert "zeta_shift2" in err and "arctan" in err

    def test_ladder_csv(self, capsys):
        code, out, _ = _run(
            capsys, "caputo", "--scheme", "l1", "--function", "exp",
            "--alpha", "0.5", "--x", "1", "--h", "0.25", "--levels", "3",
        )
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["h", "error", "order"]
        assert [r[0] for r in rows[1:]] == ["0.25", "0.125", "0.0625"]
        assert rows[1][2] == ""  # first rung has no order
        assert float(rows[3][2]) == pytest.approx(1.5, abs=0.2)

    def test_ladder_json_nulls_missing_order(self, capsys):
        code, out, _ = _run(
            capsys, "caputo", "--fourth-order", "--function", "arctan",
            "--alpha", "0.4", "--x", "1", "--h", "0.05", "--levels", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["order"] is None
        assert payload["rows"][1]["order"] == pytest.approx(3.999, abs=1e-2)

    def test_h_must_divide_x(self, capsys):
        code, _, err = _run(
            capsys, "caputo", "--fourth-order", "--function", "exp",
            "--alpha", "0.5", "--x", "1", "--h", "0.3",
        )
        assert code == 1
        assert "divide" in err

    def test_h_wider_than_x_is_a_usage_error(self, capsys):
        code, _, err = _run(
            capsys, "caputo", "--function", "exp", "--alpha", "0.5", "--x", "1",
            "--scheme", "l1", "--h", "1e10", "--levels", "2",
        )
        assert code == 1
        assert "divide" in err

    def test_infinite_x_is_a_usage_error(self, capsys):
        code, _, err = _run(
            capsys, "caputo", "--function", "exp", "--alpha", "0.5", "--x", "inf",
            "--scheme", "l1", "--h", "0.125", "--levels", "2",
        )
        assert code == 1
        assert "too many steps" in err


class TestSolve:
    def test_grid_output(self, capsys):
        code, out, _ = _run(
            capsys, "solve", "--equation", "eq3", "--alpha", "0.6",
            "--scheme", "mid2malpha", "--h", "0.1",
        )
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["m", "x", "u", "exact", "error"]
        assert len(rows) == 12
        assert rows[1][:2] == ["0", "0.0"] and float(rows[1][2]) == 1.0
        assert int(rows[-1][0]) == 10
        for r in rows[1:]:
            assert abs(float(r[2]) - float(r[3])) == pytest.approx(float(r[4]), abs=1e-15)

    def test_parametric_damping(self, capsys):
        code, out, _ = _run(
            capsys, "solve", "--equation", "relax:-2", "--alpha", "0.5",
            "--scheme", "NS[1]", "--h", "0.125",
        )
        assert code == 0
        assert len(_csv_rows(out)) == 10

    def test_taylor_start_flag(self, capsys):
        code, out, _ = _run(
            capsys, "solve", "--equation", "eq1", "--alpha", "0.25",
            "--scheme", "right3malpha", "--h", "0.25", "--start", "taylor",
        )
        assert code == 0
        assert len(_csv_rows(out)) == 6

    def test_bad_damping_is_usage_error(self, capsys):
        code, _, err = _run(
            capsys, "solve", "--equation", "relax:abc", "--alpha", "0.5",
            "--scheme", "l1", "--h", "0.25",
        )
        assert code == 1
        assert "relax:<number>" in err

    @pytest.mark.parametrize("damping", ["nan", "inf", "-inf"])
    def test_non_finite_damping_is_usage_error(self, capsys, damping):
        for argv in (("solve", "--h", "0.25"), ("table", "--h0", "0.25", "--levels", "2")):
            code, out, err = _run(
                capsys, argv[0], "--equation", f"relax:{damping}", "--alpha", "0.5",
                "--scheme", "l1", *argv[1:],
            )
            assert (code, out) == (1, "")
            assert "D must be finite" in err

    def test_divergent_run_exits_two_with_data(self, capsys):
        code, out, err = _run(
            capsys, "solve", "--equation", "relax:-7", "--alpha", "0.5",
            "--scheme", "NS[1]", "--h", "0.025",
        )
        assert code == 2
        assert len(_csv_rows(out)) == 42
        assert "divergence threshold" in err

    def test_divergent_json_is_still_valid(self, capsys):
        code, out, _ = _run(
            capsys, "solve", "--equation", "relax:-7", "--alpha", "0.5",
            "--scheme", "NS[1]", "--h", "0.025", "--format", "json",
        )
        assert code == 2
        payload = json.loads(out)
        assert len(payload["rows"]) == 41
        for row in payload["rows"]:
            assert row["u"] is None or math.isfinite(row["u"])

    def test_singular_denominator_is_numerical_failure(self, capsys):
        singular_d = -1.0 / (gamma(1.5) * 0.5**0.5)
        code, _, err = _run(
            capsys, "solve", "--equation", f"relax:{singular_d!r}", "--alpha", "0.5",
            "--scheme", "l1", "--h", "0.5",
        )
        assert code == 2
        assert err.startswith("numerical failure:")


class TestTable:
    def test_reference_ladder(self, capsys):
        code, out, _ = _run(
            capsys, "table", "--equation", "eq2", "--alpha", "0.5",
            "--scheme", "NS[13]", "--h0", "0.0125", "--levels", "3",
        )
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["h", "error", "order"]
        h, err, order = (float(v) for v in rows[3])
        assert (h, err, order) == pytest.approx(EXPECTED_T10_II_ROW, rel=1e-9)

    def test_json_shape(self, capsys):
        code, out, _ = _run(
            capsys, "table", "--equation", "eq1", "--alpha", "0.25",
            "--scheme", "l1", "--h0", "0.125", "--levels", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["rows"]
        assert [set(r) for r in payload["rows"]] == [{"h", "error", "order"}] * 2

    def test_levels_validation(self, capsys):
        code, _, err = _run(
            capsys, "table", "--equation", "eq1", "--alpha", "0.25",
            "--scheme", "l1", "--h0", "0.125", "--levels", "1",
        )
        assert code == 1
        assert "two levels" in err

    def test_infinite_h0_is_a_usage_error(self, capsys):
        code, _, err = _run(
            capsys, "table", "--equation", "eq1", "--alpha", "0.5",
            "--scheme", "l1", "--h0", "inf", "--levels", "2",
        )
        assert code == 1
        assert "divide" in err

    def test_subnormal_h0_is_a_usage_error(self, capsys):
        code, _, err = _run(
            capsys, "table", "--equation", "eq1", "--alpha", "0.5",
            "--scheme", "l1", "--h0", "1e-320", "--levels", "2",
        )
        assert code == 1
        assert "too many steps" in err

    def test_failed_rung_exits_two(self, capsys):
        singular_d = -1.0 / (gamma(1.5) * 0.5**0.5)
        code, out, err = _run(
            capsys, "table", "--equation", f"relax:{singular_d!r}", "--alpha", "0.5",
            "--scheme", "l1", "--h0", "0.5", "--levels", "2",
        )
        assert code == 2
        rows = _csv_rows(out)
        assert rows[1][1] == "inf" and rows[1][2] == ""
        assert float(rows[2][1]) > 0.0
        assert "failed at h" in err

    def test_failed_rung_prints_its_cause(self, capsys):
        singular_d = -1.0 / (gamma(1.5) * 0.5**0.5)
        argv = ["table", "--equation", f"relax:{singular_d!r}", "--alpha", "0.5",
                "--scheme", "l1", "--h0", "0.5", "--levels", "2"]
        _, out, err = _run(capsys, *argv)
        assert err.splitlines() == [
            "warning: ladder rung failed at h = 0.5: SingularDenominatorError: "
            f"1 + Gamma(2-alpha)*D*h^alpha vanished for D={singular_d!r}, h=0.5"
        ]
        assert out.splitlines()[1] == "0.5,inf,"


class TestGolden:
    def test_table_one_passes(self, capsys):
        code, out, err = _run(capsys, "golden", "--table", "1")
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["column", "h", "kind", "expected", "computed",
                           "allowance_used", "status"]
        assert len(rows) == 1 + 3 * 8
        assert {r[6] for r in rows[1:]} == {"pass"}
        assert err.splitlines() == [
            "table1:I: PASS (8/8 checks)",
            "table1:II: PASS (8/8 checks)",
            "table1:III: PASS (8/8 checks)",
        ]

    def test_divergent_table_kinds(self, capsys):
        code, out, _ = _run(capsys, "golden", "--table", "6")
        assert code == 0
        kinds = {r[2] for r in _csv_rows(out)[1:]}
        assert kinds == {"error", "order", "magnitude", "column"}

    def test_unknown_table_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "golden", "--table", "99")
        assert code == 1
        assert "1..10" in err

    def test_comparison_failure_exits_three(self, capsys, monkeypatch):
        import caputofd.cli as cli_mod
        from dataclasses import replace

        table = golden_catalog()["table1:I"]
        bumped = repr(float(table.rows[0].error_text) * 1.10)
        rows = (replace(table.rows[0], error_text=bumped),) + table.rows[1:]
        monkeypatch.setattr(
            cli_mod, "golden_catalog",
            lambda: {"table1:I": replace(table, rows=rows)},
        )
        code, out, err = _run(capsys, "golden", "--table", "1")
        assert code == 3
        statuses = [r[6] for r in _csv_rows(out)[1:]]
        assert statuses.count("fail") == 1
        assert "FAIL" in err

    def test_comparison_failure_prints_worst_deviations(self, capsys, monkeypatch):
        import caputofd.cli as cli_mod
        from dataclasses import replace

        catalog = golden_catalog()
        table = catalog["table1:I"]
        bumped = repr(float(table.rows[0].error_text) * 1.10)
        rows = (replace(table.rows[0], error_text=bumped),) + table.rows[1:]
        columns = {"table1:I": replace(table, rows=rows), "table1:II": catalog["table1:II"]}
        monkeypatch.setattr(cli_mod, "golden_catalog", lambda: columns)
        code, _, err = _run(capsys, "golden", "--table", "1")
        assert code == 3
        lines = err.splitlines()
        assert lines[0] == "table1:I: FAIL (7/8 checks)"
        worst = lines[1:4]
        assert all(line.startswith("  CellCheck(h=") for line in worst)
        assert f"h={table.rows[0].h!r}, kind='error'" in worst[0]
        assert "passed=False" in worst[0]
        assert lines[4:] == ["table1:II: PASS (8/8 checks)"]

    def test_json_shape(self, capsys):
        code, out, _ = _run(capsys, "golden", "--table", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert {c["status"] for c in payload["checks"]} == {"pass"}


class TestCheck:
    def test_property_report(self, capsys):
        code, out, _ = _run(
            capsys, "check", "--scheme", "right2malpha", "--alpha", "0.5", "--n", "8"
        )
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["name", "applicable", "passed", "detail"]
        by_name = {r[0]: r for r in rows[1:]}
        assert by_name["sum_zero"][1:3] == ["true", "true"]

    def test_json_shape(self, capsys):
        code, out, _ = _run(
            capsys, "check", "--scheme", "l1", "--alpha", "0.3", "--n", "16",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scheme"] == "l1"
        assert all(c["passed"] in (True, False, None) for c in payload["checks"])

    def test_failed_property_exits_two(self, capsys, monkeypatch):
        import caputofd.cli as cli_mod
        from caputofd.schemes import PropertyCheck, PropertyReport

        def broken(wv):
            return PropertyReport(
                scheme=wv.scheme, alpha=wv.alpha, n=wv.n,
                checks=(PropertyCheck("sum_zero", True, False, "forced"),),
            )

        monkeypatch.setattr(cli_mod, "validate_weights", broken)
        code, out, _ = _run(capsys, "check", "--scheme", "l1", "--alpha", "0.5", "--n", "4")
        assert code == 2
        assert "false" in out


class TestHarness:
    def test_help_exits_zero(self, capsys):
        code, out, _ = _run(capsys, "--help")
        assert code == 0
        assert "golden" in out

    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = _run(capsys)
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = _run(capsys, "bogus")
        assert code == 1
        assert "invalid choice" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ("solve", "--equation", "eq2", "--alpha", "0.4",
                "--scheme", "NS[40]", "--h", "0.05")
        _, out_a, _ = _run(capsys, *argv)
        _, out_b, _ = _run(capsys, *argv)
        assert out_a == out_b

    def test_every_scheme_reachable(self, capsys):
        for scheme in SchemeId:
            code, out, _ = _run(
                capsys, "weights", "--scheme", scheme.name.lower(),
                "--alpha", "0.5", "--n", "4",
            )
            assert code == 0 and len(out.splitlines()) == 5
        for label in NS_LABELS:
            code, _, _ = _run(capsys, "weights", "--scheme", label, "--alpha", "0.5", "--n", "4")
            assert code == 0

    def test_every_equation_reachable(self, capsys):
        for name in ("eq1", "eq2", "eq3", "relax:-1"):
            code, out, _ = _run(
                capsys, "solve", "--equation", name, "--alpha", "0.5",
                "--scheme", "l1", "--h", "0.25",
            )
            assert code == 0 and len(_csv_rows(out)) == 6

    def test_every_function_reachable(self, capsys):
        for name in function_catalog():
            code, out, _ = _run(
                capsys, "caputo", "--fourth-order", "--function", name,
                "--alpha", "0.5", "--x", "1", "--h", "0.125",
            )
            assert code == 0
            assert float(_csv_rows(out)[1][2]) < 1e-4


_SINGULAR_D = repr(-1.0 / (gamma(1.5) * 0.5**0.5))

# One invocation per table-writing subcommand, without --format.
TABLE_ARGV = {
    "coeffs": ("coeffs", "--alpha-grid", "0.3:0.7:0.2"),
    "caputo-ladder": ("caputo", "--scheme", "l1", "--function", "exp", "--alpha", "0.5",
                      "--x", "1", "--h", "0.25", "--levels", "3"),
    "solve": ("solve", "--equation", "eq3", "--alpha", "0.6", "--scheme", "mid2malpha",
              "--h", "0.1"),
    "table": ("table", "--equation", f"relax:{_SINGULAR_D}", "--alpha", "0.5",
              "--scheme", "l1", "--h0", "0.5", "--levels", "2"),
    "golden": ("golden", "--table", "6"),
    "check": ("check", "--scheme", "right2malpha", "--alpha", "0.5", "--n", "8"),
}

# Every JSON shape the tool writes, the non-finite paths included.
JSON_ARGV = {
    **TABLE_ARGV,
    "weights": ("weights", "--scheme", "right3malpha", "--alpha", "0.3", "--n", "12"),
    "caputo-value": ("caputo", "--fourth-order", "--function", "log1p", "--alpha", "0.4",
                     "--x", "2", "--h", "0.0125"),
    "solve-divergent": ("solve", "--equation", "relax:-7", "--alpha", "0.5",
                        "--scheme", "NS[1]", "--h", "0.025"),
}


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestOutputFormats:
    @pytest.mark.parametrize("name", sorted(JSON_ARGV))
    def test_json_is_strict(self, capsys, name):
        _, out, _ = _run(capsys, *JSON_ARGV[name], "--format", "json")
        assert _strict_json(out)

    @pytest.mark.parametrize("name", sorted(TABLE_ARGV))
    def test_csv_and_json_agree(self, capsys, name):
        code_csv, out_csv, _ = _run(capsys, *TABLE_ARGV[name])
        code_json, out_json, _ = _run(capsys, *TABLE_ARGV[name], "--format", "json")
        assert code_csv == code_json
        header, *rows = _csv_rows(out_csv)
        payload = _strict_json(out_json)
        records = payload["checks" if name in ("golden", "check") else "rows"]
        assert len(records) == len(rows) > 0
        for record, row in zip(records, rows):
            assert list(record) == header
            for value, cell in zip(record.values(), row):
                if value is None:
                    assert cell == "" or not math.isfinite(float(cell))
                elif isinstance(value, bool):
                    assert cell == str(value).lower()
                elif isinstance(value, (int, float)):
                    assert cell == repr(value)
                else:
                    assert cell == value

    def test_csv_prints_numpy_bools_as_words(self):
        assert [_cell(np.bool_(True)), _cell(np.bool_(False))] == ["true", "false"]
