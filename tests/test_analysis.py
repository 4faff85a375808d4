"""Tests for convergence ladders and golden-table comparison."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caputofd.analysis import (
    CellCheck,
    ComparisonReport,
    ConvergenceRow,
    LadderMismatchError,
    _sig_digits,
    approximation_ladder,
    compare_golden,
    convergence_ladder,
    golden_catalog,
    grid_intervals,
    run_golden,
)
from caputofd.caputo import apply_stencil, exact_caputo_power, function_catalog, sample_path
from caputofd.golden_data import (
    NOISE_FLOOR,
    ORDER_UNPINNED,
    GoldenRow,
    GoldenTable,
    RecomputeSpec,
)
from caputofd.relaxation import NS_LABELS, RelaxationProblem, equation_catalog
from caputofd.schemes import SchemeId, build_weights
from caputofd.specfun import gamma

# Frozen outputs of the deterministic ladder pipeline (printed reference
# values are re-checked separately through compare_golden's tolerances).
EXPECTED_T9_I_FIRST = 2.6343300027598104e-05
EXPECTED_T9_I_LAST = 6.934207394948544e-07
EXPECTED_T9_I_LAST_ORDER = 1.749651156450831
EXPECTED_T10_II_ERR = 7.613373620429797e-08
EXPECTED_T10_II_ORDER = 2.4945293419373056
EXPECTED_LOG1P_0125 = 3.1086427832161854e-11
EXPECTED_ZETA_COARSE = 6.6454070866958926e-09


def _problem(alpha, label, D=-1.0):
    return next(p for p in equation_catalog(alpha, D=D) if p.label == label)


@pytest.fixture(scope="module")
def table9_col1():
    return run_golden(golden_catalog()["table9:I"])


@pytest.fixture(scope="module")
def table1_runs():
    cat = golden_catalog()
    return {k: run_golden(cat[k]) for k in ("table1:I", "table1:II", "table1:III")}


class TestConvergenceRow:
    def test_fields(self):
        row = ConvergenceRow(h=0.1, error=1e-3, order=1.5)
        assert (row.h, row.error, row.order, row.failed) == (0.1, 1e-3, 1.5, False)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": 0.0, "error": 1.0},
            {"h": -0.1, "error": 1.0},
            {"h": 0.1, "error": -1e-9},
            {"h": 0.1, "error": 1.0, "order": math.inf},
            {"h": 0.1, "error": 1.0, "order": math.nan},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ConvergenceRow(**kwargs)

    def test_failed_row_may_carry_inf_error(self):
        row = ConvergenceRow(h=0.1, error=math.inf, failed=True)
        assert row.failed and row.order is None


class TestSigDigits:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4.3e-6", 2),
            ("0.0000466", 3),
            ("0.0024184", 5),
            ("1.0e15", 2),
            ("438076.6", 7),
            ("0.00003552", 4),
            ("0.021064", 5),
            ("1.4e6", 2),
        ],
    )
    def test_counts(self, text, expected):
        assert _sig_digits(text) == expected


class TestGoldenCatalog:
    def test_thirty_columns(self):
        cat = golden_catalog()
        assert len(cat) == 30
        prefixes = {tid.split(":")[0] for tid in cat}
        assert prefixes == {f"table{i}" for i in range(1, 11)}

    def test_rows_parse_and_halve(self):
        for table in golden_catalog().values():
            assert len(table.rows) == 4
            for row in table.rows:
                assert float(row.error_text) > 0.0
                assert math.isfinite(float(row.order_text))
            for a, b in zip(table.rows, table.rows[1:]):
                assert b.h == pytest.approx(a.h / 2, rel=1e-12)

    def test_specs_resolve(self):
        functions = function_catalog()
        for table in golden_catalog().values():
            spec = table.spec
            if spec.kind == "solver":
                assert spec.scheme_label in NS_LABELS
                assert spec.equation in {"I", "II", "III", "exp"}
            else:
                assert spec.function in functions

    def test_divergent_flags(self):
        cat = golden_catalog()
        divergent = {tid for tid, t in cat.items() if t.divergent}
        assert divergent == {"table6:D-5", "table6:D-7"}

    def test_wide_order_gate_only_low_order_tables(self):
        cat = golden_catalog()
        wide = {tid for tid, t in cat.items() if t.order_atol == 0.02}
        assert wide == {
            "table2:I", "table2:II", "table2:III",
            "table7:I", "table7:II", "table7:III",
        }

    def test_halving_invariant_enforced(self):
        rows = (
            GoldenRow(0.1, "1e-3", "1.5"),
            GoldenRow(0.04, "1e-4", "1.5"),
        )
        with pytest.raises(ValueError, match="halve"):
            GoldenTable(
                table_id="bad", title="bad",
                spec=RecomputeSpec(kind="solver", alpha=0.5, h0=0.1, levels=2),
                rows=rows,
            )


class TestConvergenceLadder:
    def test_matches_reference_column(self, table9_col1):
        """Equation I with the corrected right-sum scheme at alpha=0.25."""
        rows, report = table9_col1
        assert report.all_passed
        assert len(rows) == 5
        assert rows[0].h == pytest.approx(0.00625)
        assert rows[0].order is None
        assert rows[1].error == pytest.approx(EXPECTED_T9_I_FIRST, rel=1e-9)
        assert rows[-1].error == pytest.approx(EXPECTED_T9_I_LAST, rel=1e-9)
        assert rows[-1].order == pytest.approx(EXPECTED_T9_I_LAST_ORDER, abs=1e-9)

    def test_third_order_scheme_row(self):
        """Equation II, third-order right-sum scheme, h=0.003125."""
        prob = _problem(0.5, "II")
        scheme, start = NS_LABELS["NS[13]"]
        rows = convergence_ladder(prob, scheme, start, 0.00625, 2)
        assert rows[1].h == pytest.approx(0.003125)
        assert rows[1].error == pytest.approx(7.6e-8, rel=2e-2)
        assert rows[1].order == pytest.approx(2.4945, abs=1e-2)
        assert rows[1].error == pytest.approx(EXPECTED_T10_II_ERR, rel=1e-9)
        assert rows[1].order == pytest.approx(EXPECTED_T10_II_ORDER, abs=1e-9)

    def test_exact_scheme_suppresses_orders(self):
        """A linear solution is reproduced to rounding; orders are suppressed."""
        alpha = 0.3

        def forcing(x):
            return exact_caputo_power(1, alpha, x) + 1.0 + x

        prob = RelaxationProblem(
            alpha=alpha, D=1.0, forcing=forcing, y0=1.0,
            exact=lambda x: 1.0 + x, label="linear",
        )
        rows = convergence_ladder(prob, SchemeId.Mid2mAlpha, None, 0.125, 3)
        for row in rows:
            assert row.error < 1e-13
            assert row.order is None
            assert not row.failed

    def test_failed_rung_continues_ladder(self):
        alpha = 0.5

        def forcing(x):
            if np.min(x) < 0.005:
                raise ValueError("forcing not defined this close to zero")
            return np.ones_like(x)

        prob = RelaxationProblem(
            alpha=alpha, D=1.0, forcing=forcing, y0=0.0,
            exact=lambda x: 0.0 * x, label="partial",
        )
        rows = convergence_ladder(prob, SchemeId.L1, None, 0.0125, 3)
        assert [r.failed for r in rows] == [False, False, True]
        assert rows[2].error == math.inf
        assert rows[2].order is None

    def test_failed_rung_carries_its_cause(self):
        def forcing(x):
            if np.min(x) < 0.005:
                raise ValueError("forcing not defined this close to zero")
            return np.ones_like(x)

        prob = RelaxationProblem(
            alpha=0.5, D=1.0, forcing=forcing, y0=0.0,
            exact=lambda x: 0.0 * x, label="partial",
        )
        rows = convergence_ladder(prob, SchemeId.L1, None, 0.0125, 3)
        assert [r.cause for r in rows] == [
            "", "", "ValueError: forcing not defined this close to zero"
        ]

    def test_validation(self):
        prob = _problem(0.5, "II")
        with pytest.raises(ValueError, match="two levels"):
            convergence_ladder(prob, SchemeId.L1, None, 0.00625, 1)
        with pytest.raises(ValueError, match="divide"):
            convergence_ladder(prob, SchemeId.L1, None, 0.007, 3)
        blind = replace(prob, exact=None)
        with pytest.raises(ValueError, match="exact"):
            convergence_ladder(blind, SchemeId.L1, None, 0.00625, 2)

    def test_name_error_in_forcing_propagates(self):
        def forcing(x):
            return np.exp(x) + undefined_term  # noqa: F821

        prob = RelaxationProblem(alpha=0.5, D=1.0, forcing=forcing, y0=1.0, exact=np.exp)
        with pytest.raises(NameError, match="undefined_term"):
            convergence_ladder(prob, SchemeId.L1, None, 0.05, 3)

    def test_scalar_only_forcing_propagates(self):
        prob = RelaxationProblem(alpha=0.5, D=1.0, forcing=math.exp, y0=1.0, exact=np.exp)
        with pytest.raises(TypeError):
            convergence_ladder(prob, SchemeId.L1, None, 0.05, 3)


class TestApproximationLadder:
    def test_arctan_orders(self):
        """Fourth-order formula on arctan t at x=1."""
        rows = approximation_ladder(function_catalog()["arctan"], 0.4, 1.0, 0.025, 4)
        orders = [r.order for r in rows]
        assert orders[0] is None
        assert orders[1] == pytest.approx(3.999, abs=1e-2)
        assert orders[2] == pytest.approx(3.999, abs=1e-2)
        # The reference column prints 3.961 here, its own rounding noise;
        # the recomputed rung stays clean.
        assert orders[3] == pytest.approx(3.9964, abs=1e-3)

    def test_log1p_error_cell(self):
        rows = approximation_ladder(function_catalog()["log1p"], 0.4, 2.0, 0.025, 2)
        assert rows[1].h == pytest.approx(0.0125)
        assert rows[1].error == pytest.approx(3.1e-11, rel=5e-2)
        assert rows[1].error == pytest.approx(EXPECTED_LOG1P_0125, rel=1e-9)

    def test_cubic_reaches_fourth_order(self):
        rows = approximation_ladder(function_catalog()["t3"], 0.5, 1.0, 0.1, 5)
        assert rows[3].order == pytest.approx(4.0, abs=1e-2)
        assert rows[4].order == pytest.approx(4.0, abs=1e-2)
        assert rows[-1].error < 2e-11

    def test_operator_scale_convention(self):
        """Fourth-order errors carry the |Gamma(-alpha)| operator factor."""
        f = function_catalog()["log1p"]
        alpha, x = 0.4, 2.0
        scaled = approximation_ladder(f, alpha, x, 0.05, 2)
        raw_gap = scaled[0].error / abs(gamma(-alpha))
        from caputofd.caputo import fourth_order_eval

        direct = abs(fourth_order_eval(f, alpha, x, 40) - f.exact_caputo(alpha, x))
        assert raw_gap == pytest.approx(direct, rel=1e-12)

    def test_stencil_ladder_uses_plain_units(self):
        f = function_catalog()["exp"]
        rows = approximation_ladder(f, 0.5, 1.0, 0.05, 6, scheme=SchemeId.L1)
        direct = abs(
            apply_stencil(build_weights(SchemeId.L1, 0.5, 20), sample_path(f, 1.0, 20))
            - f.exact_caputo(0.5, 1.0)
        )
        assert rows[0].error == pytest.approx(direct, rel=1e-12)
        assert rows[-1].order == pytest.approx(1.5, abs=6e-2)

    def test_quadrature_reference_path(self):
        """zeta(t+2) has no closed form; the quadrature oracle steps in."""
        rows = approximation_ladder(function_catalog()["zeta_shift2"], 0.4, 3.0, 0.05, 2)
        assert rows[0].error == pytest.approx(EXPECTED_ZETA_COARSE, rel=1e-6)
        assert rows[1].order == pytest.approx(4.0, abs=2e-2)

    def test_validation(self):
        f = function_catalog()["exp"]
        with pytest.raises(ValueError, match="two levels"):
            approximation_ladder(f, 0.5, 1.0, 0.05, 1)
        with pytest.raises(ValueError, match="divide"):
            approximation_ladder(f, 0.5, 1.0, 0.3, 2)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_nonpositive_interval_is_a_value_error(self, x):
        with pytest.raises(ValueError, match="x must be positive"):
            approximation_ladder(function_catalog()["exp"], 0.5, x, 0.25, 3)

    @pytest.mark.parametrize("h", [1e10, 1e300, math.inf])
    def test_step_wider_than_the_interval_is_a_value_error(self, h):
        # x / h rounds to zero steps, which every rung would divide by.
        with pytest.raises(ValueError, match="divide"):
            grid_intervals(1.0, h)

    @pytest.mark.parametrize("x, h", [(math.inf, 0.125), (1.0, 1e-320), (1e300, 1e-300)])
    def test_uncountable_steps_are_a_value_error(self, x, h):
        # x / h overflows to inf, which round() cannot convert to a count.
        with pytest.raises(ValueError, match="too many steps"):
            grid_intervals(x, h)

    @pytest.mark.parametrize(
        "x, h0, levels", [(1.0, 0.125, 1), (1.0, 0.3, 2), (0.0, 0.125, 2)]
    )
    def test_grid_is_checked_before_the_reference(self, monkeypatch, x, h0, levels):
        import caputofd.analysis as analysis_mod

        def no_quadrature(*args, **kwargs):
            raise AssertionError("reference computed before the grid was checked")

        monkeypatch.setattr(analysis_mod, "caputo_quadrature", no_quadrature)
        with pytest.raises(ValueError):
            approximation_ladder(function_catalog()["zeta_shift2"], 0.5, x, h0, levels)


def _single_row_table(error_text, order_text, flags=(), **table_kwargs):
    return GoldenTable(
        table_id="synthetic:one", title="synthetic",
        spec=RecomputeSpec(kind="solver", alpha=0.5, h0=0.1, levels=2),
        rows=(GoldenRow(0.1, error_text, order_text, frozenset(flags)),),
        **table_kwargs,
    )


class TestCompareGolden:
    def test_fresh_table1_all_pass(self, table1_runs):
        for rows, report in table1_runs.values():
            assert report.all_passed, report.failures

    def test_damped_table_passes_quantitatively(self):
        rows, report = run_golden(golden_catalog()["table6:D-2"])
        assert report.all_passed
        assert rows[1].error == pytest.approx(0.00275681, rel=2e-2)
        assert rows[1].order == pytest.approx(1.4795, abs=1e-2)

    @pytest.mark.parametrize("tid", ["table6:D-5", "table6:D-7"])
    def test_divergent_columns_flagged(self, tid):
        rows, report = run_golden(golden_catalog()[tid])
        assert report.all_passed
        kinds = {c.kind for c in report.checks}
        assert kinds == {"magnitude", "column"}
        assert min(r.error for r in rows[1:]) > 1e2

    def test_divergent_detection_requires_large_errors(self):
        table = golden_catalog()["table6:D-5"]
        rows = [ConvergenceRow(h=g.h, error=1e-3, order=1.0) for g in table.rows]
        report = compare_golden(rows, table)
        column = [c for c in report.checks if c.kind == "column"]
        assert len(column) == 1 and not column[0].passed

    def test_perturbed_fixture_fails_exactly_one_cell(self, table1_runs):
        rows, _ = table1_runs["table1:I"]
        table = golden_catalog()["table1:I"]
        bumped = float(table.rows[2].error_text) * 1.10
        new_rows = tuple(
            replace(r, error_text=repr(bumped)) if i == 2 else r
            for i, r in enumerate(table.rows)
        )
        perturbed = replace(table, rows=new_rows)
        report = compare_golden(rows, perturbed)
        assert len(report.failures) == 1
        bad = report.failures[0]
        assert bad.kind == "error" and bad.h == pytest.approx(table.rows[2].h)

    def test_ladder_mismatch_raises(self, table1_runs):
        rows, _ = table1_runs["table1:I"]
        with pytest.raises(LadderMismatchError):
            compare_golden(rows[:3], golden_catalog()["table1:I"])

    def test_duplicate_h_rejected(self, table1_runs):
        rows, _ = table1_runs["table1:I"]
        with pytest.raises(LadderMismatchError):
            compare_golden(list(rows) + [rows[-1]], golden_catalog()["table1:I"])

    @settings(max_examples=20)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_row_order_irrelevant(self, table1_runs, seed):
        rows, report = table1_runs["table1:I"]
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        again = compare_golden(shuffled, golden_catalog()["table1:I"])
        assert again == report

    def test_deterministic_end_to_end(self, table9_col1):
        rows, report = table9_col1
        rows2, report2 = run_golden(golden_catalog()["table9:I"])
        assert rows2 == rows
        assert report2 == report

    def test_noise_floor_factor_two_window(self):
        table = _single_row_table("1.0e-13", "3.999", flags=(NOISE_FLOOR, ORDER_UNPINNED))
        ok = compare_golden([ConvergenceRow(h=0.1, error=1.9e-13, order=None)], table)
        assert ok.all_passed
        bad = compare_golden([ConvergenceRow(h=0.1, error=2.2e-13, order=None)], table)
        assert [c.kind for c in bad.failures] == ["error"]

    def test_order_unpinned_skips_comparison(self):
        table = _single_row_table("1.0e-3", "3.999", flags=(ORDER_UNPINNED,))
        report = compare_golden([ConvergenceRow(h=0.1, error=1.0e-3, order=2.0)], table)
        assert report.all_passed
        order_check = next(c for c in report.checks if c.kind == "order")
        assert "not compared" in order_check.note

    def test_missing_order_fails_comparable_cell(self):
        table = _single_row_table("1.0e-3", "1.5")
        report = compare_golden([ConvergenceRow(h=0.1, error=1.0e-3, order=None)], table)
        assert [c.kind for c in report.failures] == ["order"]

    def test_two_sig_digit_cells_get_five_percent(self):
        table = _single_row_table("1.3e-8", "1.5")
        row = ConvergenceRow(h=0.1, error=1.3e-8 * 1.04, order=1.5)
        assert compare_golden([row], table).all_passed
        tight = _single_row_table("1.300e-8", "1.5")
        assert not compare_golden([row], tight).all_passed

    def test_failed_row_fails_cells(self):
        table = _single_row_table("1.0e-3", "1.5")
        row = ConvergenceRow(h=0.1, error=math.inf, failed=True)
        report = compare_golden([row], table)
        assert {c.kind for c in report.failures} == {"error", "order"}

    def test_report_helpers(self, table9_col1):
        _, report = table9_col1
        assert report.summary().startswith("table9:I: PASS (8/8")
        worst = report.worst_deviations(3)
        assert len(worst) == 3
        assert worst[0].allowance_used >= worst[1].allowance_used >= worst[2].allowance_used

    def test_run_golden_rejects_unknown_kind(self):
        table = _single_row_table("1.0e-3", "1.5")
        broken = replace(table, spec=replace(table.spec, kind="mystery"))
        with pytest.raises(ValueError, match="mystery"):
            run_golden(broken)


class TestOrderInvariant:
    """Finest-rung order estimates stay within 0.06 of the nominal order."""

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize(
        "scheme,nominal",
        [
            (SchemeId.MidLow, lambda a: 1.0 - a),
            (SchemeId.L1, lambda a: 2.0 - a),
            (SchemeId.Mid2, lambda a: 2.0),
            (SchemeId.Right3mAlpha, lambda a: 3.0 - a),
        ],
        ids=["midlow", "l1", "mid2", "right3malpha"],
    )
    def test_finest_rung_order(self, scheme, nominal, alpha):
        prob = _problem(alpha, "II")
        rows = convergence_ladder(prob, scheme, None, 0.00625, 5)
        assert rows[-1].order == pytest.approx(nominal(alpha), abs=6e-2)
