"""Release acceptance suite: thirteen end-to-end gates.

Every test recomputes its target from scratch — table columns through the
shared session fixture, weight and coefficient checks directly — and
compares against the bundled reference tables or against pinned
tolerances.  Each gate prints one ``criterion NN: PASS`` line on success,
so ``pytest -s -v tests/test_acceptance.py`` doubles as a release
checklist.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from caputofd.analysis import run_golden
from caputofd.caputo import (
    QuadratureError,
    SampledPath,
    apply_stencil,
    exact_caputo_power,
    function_catalog,
    sample_path,
)
from caputofd.golden_data import ORDER_UNPINNED, golden_catalog
from caputofd.schemes import (
    SchemeId,
    _tail_coefficients,
    build_weights,
    expansion_coefficients,
    validate_weights,
)
from caputofd.specfun import zeta

#: Fractional orders used by the exhaustive property sweeps.
PROPERTY_ALPHAS = tuple(round(0.05 * i, 2) for i in range(1, 20))

#: Grid sizes used by the exhaustive property sweeps.
PROPERTY_NS = tuple(range(2, 65))

#: Schemes whose corrections make them exact on linear functions.
LINEAR_EXACT = (
    SchemeId.Mid2mAlpha,
    SchemeId.Mid2,
    SchemeId.Right2mAlpha,
    SchemeId.Right3mAlpha,
)


def _announce(criterion: int, message: str) -> None:
    print(f"criterion {criterion:02d}: PASS — {message}")


@pytest.fixture(scope="session")
def golden_runs():
    """Recompute every reference column once for the whole suite.

    The zeta column's reference values come from adaptive quadrature.  The
    quadrature is deterministic numpy, so a ``QuadratureError`` there is a
    regression; it is stored instead of raised so that the gate owning the
    column fails on it (through :func:`_passing`) and the others still run.
    """
    out = {}
    for table_id, table in golden_catalog().items():
        try:
            out[table_id] = run_golden(table)
        except QuadratureError as exc:  # pragma: no cover - a regression
            out[table_id] = exc
    return out


def _passing(golden_runs, table_id):
    """Unwrap one recomputed column and assert every cell check passed."""
    outcome = golden_runs[table_id]
    if isinstance(outcome, QuadratureError):
        pytest.fail(f"{table_id}: reference quadrature failed: {outcome}")
    rows, report = outcome
    assert report.all_passed, (
        f"{table_id}: {report.summary()}\n"
        + "\n".join(
            f"  h={c.h} {c.kind}: expected {c.expected}, got {c.computed} ({c.note})"
            for c in report.failures()
        )
    )
    return rows, report


def test_criterion_01_l1_solver_ladders(golden_runs):
    """First-column benchmark: the (2-alpha)-order one-sided scheme.

    Errors must match the printed cells within 2% (5% when only two
    significant digits are printed) and orders within 0.01, on all three
    benchmark problems at alpha = 0.25 / 0.5 / 0.75.
    """
    for column in ("table1:I", "table1:II", "table1:III"):
        rows, report = _passing(golden_runs, column)
        assert len(rows) == 5 and len(report.checks) == 8
    _announce(1, "table 1 reproduced on all three benchmark problems")


def test_criterion_02_midpoint_solver_ladders(golden_runs):
    """Midpoint-corrected (2-alpha)-order scheme against its table."""
    for column in ("table3:I", "table3:II", "table3:III"):
        _passing(golden_runs, column)
    _announce(2, "table 3 reproduced on all three benchmark problems")


def test_criterion_03_second_order_solver_ladders(golden_runs):
    """Second-order midpoint scheme: cells match and orders approach 2."""
    for column in ("table4:I", "table4:II", "table4:III"):
        rows, _ = _passing(golden_runs, column)
        assert abs(rows[-1].order - 2.0) < 0.05
    _announce(3, "table 4 reproduced; finest orders approach 2")


def test_criterion_04_right_point_beats_first_scheme(golden_runs):
    """Right-point (2-alpha) scheme: table match plus strict dominance.

    On every rung the right-point run must have a strictly smaller maximal
    error than the first scheme's run of the same problem (same grids, so
    rungs pair one-to-one).
    """
    for suffix in ("I", "II", "III"):
        rows9, _ = _passing(golden_runs, f"table9:{suffix}")
        rows1, _ = _passing(golden_runs, f"table1:{suffix}")
        for right_row, l1_row in zip(rows9, rows1):
            assert right_row.h == l1_row.h
            assert right_row.error < l1_row.error, (
                f"table9:{suffix} h={right_row.h}: {right_row.error} "
                f"not below {l1_row.error}"
            )
    _announce(4, "table 9 reproduced; right-point error below table 1 on every rung")


def test_criterion_05_taylor_started_three_minus_alpha(golden_runs):
    """(3-alpha)-order scheme with Taylor start: orders hit 3 - alpha."""
    nominal = {"table10:I": 2.75, "table10:II": 2.50, "table10:III": 2.25}
    for column, target in nominal.items():
        rows, _ = _passing(golden_runs, column)
        assert abs(rows[-1].order - target) < 0.01, (
            f"{column}: finest order {rows[-1].order} vs {target}"
        )
    _announce(5, "table 10 reproduced; orders at 2.75 / 2.50 / 2.25")


def test_criterion_06_low_order_solver_ladders(golden_runs):
    """(1-alpha)-order schemes: table match with the wider order band."""
    for column in ("table2:I", "table2:II", "table2:III",
                   "table7:I", "table7:II", "table7:III"):
        _, report = _passing(golden_runs, column)
        assert golden_catalog()[column].order_atol == 0.02
    _announce(6, "tables 2 and 7 reproduced (order band 0.02)")


def test_criterion_07_negative_damping_ladders(golden_runs):
    """Exponential-solution problem with damping -1 across three schemes."""
    for column in ("table5:NS[1]", "table5:NS[9]", "table5:NS[12]"):
        _passing(golden_runs, column)
    _announce(7, "table 5 reproduced for all three scheme columns")


def test_criterion_08_stiff_damping_and_divergence(golden_runs):
    """Damping study: quantitative at -2, flagged divergent at -5 and -7."""
    rows, _ = _passing(golden_runs, "table6:D-2")
    fixture = golden_catalog()["table6:D-2"].rows
    assert (fixture[0].error_text, fixture[0].order_text) == ("0.00275681", "1.4795")
    assert abs(rows[1].error - 0.00275681) / 0.00275681 < 0.02
    assert abs(rows[1].order - 1.4795) < 0.01

    for column in ("table6:D-5", "table6:D-7"):
        table = golden_catalog()[column]
        assert table.divergent
        computed, report = _passing(golden_runs, column)
        assert {c.kind for c in report.checks} == {"magnitude", "column"}
        for fixture_row, computed_row in zip(table.rows, computed[1:]):
            printed = float(fixture_row.error_text)
            ratio = computed_row.error / printed
            assert 0.01 < ratio < 100.0, (column, fixture_row.h, ratio)
    _announce(8, "table 6: -2 quantitative, -5/-7 divergent within factor 100")


def test_criterion_09_fourth_order_columns(golden_runs):
    """Pointwise fourth-order formula on the two smooth benchmarks.

    Errors within the printed cells' tolerance; every pinned order cell
    prints 3.999/4.000 and the recomputed order lands within 0.01 of it.
    """
    pinned_orders = 0
    for column in ("table8:arctan", "table8:log1p"):
        rows, _ = _passing(golden_runs, column)
        table = golden_catalog()[column]
        for fixture_row, computed_row in zip(table.rows, rows[1:]):
            if not fixture_row.order_text or ORDER_UNPINNED in fixture_row.flags:
                continue
            printed = float(fixture_row.order_text)
            assert 3.99 <= printed <= 4.001
            assert abs(computed_row.order - printed) <= 0.01
            pinned_orders += 1
    assert pinned_orders >= 4
    _announce(9, "table 8 arctan and log1p columns reproduced at order 4")


def test_criterion_09_zeta_column_attempt(golden_runs):
    """The zeta-shift column is reproduced; a quadrature failure fails it.

    Its reference values come from adaptive quadrature of an integrand with
    no closed form.  That oracle is deterministic, so when it cannot certify
    1e-12 the gate fails with the achieved-precision report.
    """
    _, report = _passing(golden_runs, "table8:zeta")
    _announce(9, f"table 8 zeta column reproduced ({report.summary()})")


def test_criterion_10_weight_property_sweep():
    """Structural weight properties hold on the full sweep with no failures.

    For every scheme, alpha in {0.05..0.95} and n in {2..64}: the built-in
    validation report (zero sum, sign chain, envelope bounds) passes, the
    two tail-correction coefficients keep their proven signs, and the
    midpoint tail deficit stays inside (-n^-alpha, 0).
    """
    violations = []
    for scheme in SchemeId:
        for alpha in PROPERTY_ALPHAS:
            for n in PROPERTY_NS:
                report = validate_weights(build_weights(scheme, alpha, n))
                if not report.all_passed:
                    violations.append(
                        (scheme.name, alpha, n, [c.name for c in report.failures()])
                    )
    ns = np.array(PROPERTY_NS)
    for alpha in PROPERTY_ALPHAS:
        deficits, k1, k2 = _tail_coefficients(alpha, ns, ("w", "k1", "k2"))
        for n, deficit, k1_n, k2_n in zip(PROPERTY_NS, deficits, k1, k2):
            if not -(float(n) ** -alpha) < deficit < 0.0:
                violations.append(("tail-deficit", alpha, n, deficit))
            if not k1_n < 0.0:
                violations.append(("k1-sign", alpha, n))
            if not k2_n > 0.0:
                violations.append(("k2-sign", alpha, n))
    assert not violations, violations[:20]
    checks = len(PROPERTY_ALPHAS) * len(PROPERTY_NS) * (len(SchemeId) + 3)
    _announce(10, f"{checks} property checks, zero violations")


def test_criterion_11_polynomial_exactness():
    """Constants are annihilated by every scheme; linears by the corrected four."""
    constant = 2.5
    for scheme in SchemeId:
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            for n in (2, 3, 8, 64):
                path = SampledPath(x=1.0, n=n, values=np.full(n + 1, constant))
                value = apply_stencil(build_weights(scheme, alpha, n), path)
                assert abs(value) <= 1e-10, (scheme.name, alpha, n, value)

    identity = function_catalog()["t"]
    for scheme in LINEAR_EXACT:
        for alpha in (0.1, 0.5, 0.9):
            for n in (2, 5, 32, 128):
                value = apply_stencil(
                    build_weights(scheme, alpha, n), sample_path(identity, 1.0, n)
                )
                exact = exact_caputo_power(1.0, alpha, 1.0)
                assert abs(value - exact) / exact <= 1e-9, (scheme.name, alpha, n)
    _announce(11, "constants exact for all schemes, linears for the corrected four")


def test_criterion_12_leading_error_coefficients():
    """Leading-coefficient claims: positivity, ordering, empirical recovery.

    The empirical estimate uses two grids (n = 512 and 1024): a single-grid
    ratio still carries an O(h^alpha) relative contribution — 8% at
    alpha = 0.25 even on the fine grid — so the two ratios are combined to
    eliminate that term before comparing against the closed form.
    """
    for alpha in PROPERTY_ALPHAS:
        coeffs = expansion_coefficients(alpha)
        assert coeffs.c1 > 0.0 and coeffs.c9 > 0.0 and coeffs.c12 > 0.0
        assert coeffs.c12 < min(coeffs.c1, coeffs.c9), (alpha, coeffs)

    quadratic = function_catalog()["t2"]

    def ratio(scheme: SchemeId, alpha: float, n: int) -> float:
        approx = apply_stencil(
            build_weights(scheme, alpha, n), sample_path(quadratic, 1.0, n)
        )
        exact = exact_caputo_power(2.0, alpha, 1.0)
        return (approx - exact) / (2.0 * (1.0 / n) ** (2.0 - alpha))

    pairs = ((SchemeId.L1, 0), (SchemeId.MidRaw, 1), (SchemeId.RightRaw, 2))
    for alpha in (0.25, 0.5, 0.75):
        coeffs = expansion_coefficients(alpha)
        shrink = 2.0 ** -alpha
        for scheme, index in pairs:
            coarse, fine = ratio(scheme, alpha, 512), ratio(scheme, alpha, 1024)
            estimate = abs((fine - shrink * coarse) / (1.0 - shrink))
            relative = abs(estimate - coeffs[index]) / coeffs[index]
            assert relative < 0.02, (scheme.name, alpha, estimate, coeffs[index])
    _announce(12, "coefficient signs, ordering and 2% empirical recovery hold")


def _closed_form_tail(alpha: float, n: int) -> tuple[float, float, float]:
    """Closed forms for the last three (3-alpha)-scheme weights.

    Written directly in terms of the harmonic deficits S[alpha + 1],
    S[alpha] and S[alpha - 1], summed here with ``math.fsum``, so the
    comparison is independent of the additive head/tail pipeline and the
    deficit table in :mod:`caputofd.schemes`.
    """

    def deficit(s: float) -> float:
        return math.fsum(float(k) ** -s for k in range(1, n)) - zeta(s)

    s_up = deficit(alpha + 1.0)
    s_mid = deficit(alpha)
    s_down = deficit(alpha - 1.0)
    power = float(n) ** (1.0 - alpha)
    third_last = (n - 2.0) ** -(1.0 + alpha) - 0.5 * (
        n * (n - 1.0) * s_up
        - (2.0 * n - 1.0) * s_mid
        + s_down
        + (alpha + 2.0 * n - 2.0) * power / ((alpha - 2.0) * (alpha - 1.0) * alpha)
    )
    second_last = (
        (n - 1.0) ** -(1.0 + alpha)
        + n * (n - 2.0) * s_up
        - 2.0 * (n - 1.0) * s_mid
        + s_down
        + 2.0 * (alpha + n - 2.0) * power / (alpha * (1.0 - alpha) * (2.0 - alpha))
    )
    last = -0.5 * (
        (n - 1.0) * (n - 2.0) * s_up
        - (2.0 * n - 3.0) * s_mid
        + s_down
        + (3.0 * alpha + 2.0 * n - 6.0) * power / (alpha * (1.0 - alpha) * (2.0 - alpha))
    )
    return third_last, second_last, last


def _small_n_vectors(alpha: float) -> dict[tuple[SchemeId, int], list[float]]:
    """Reference weight vectors for the smallest grids, as closed forms.

    The leading entry of the two-interval (3-alpha) vector is reconstructed
    from the zero-sum identity: the directly stated form drops a factor of
    alpha (the stated triple does not sum to zero, which every corrected
    scheme's weights must), and restoring it reproduces the built weights
    to machine precision.
    """
    z_mid = zeta(alpha)
    z_down = zeta(alpha - 1.0)
    z_up = zeta(alpha + 1.0)
    pow2 = 2.0 ** (2.0 - alpha) / (1.0 - alpha)
    pow3 = 3.0 ** (1.0 - alpha) / (1.0 - alpha)
    right2_jump = 2.0 ** (1.0 - alpha) / (alpha * (1.0 - alpha))
    right3_scale = 2.0 ** alpha * (2.0 - alpha) * (1.0 - alpha)
    right3_bump = 3.0 ** (1.0 - alpha) / (alpha * (1.0 - alpha) * (2.0 - alpha))
    return {
        (SchemeId.MidLow, 2): [1.0, 0.0, -1.0],
        (SchemeId.Mid2mAlpha, 2): [
            1.0 - 2.0 * z_mid,
            4.0 * z_mid + pow2 - 2.0,
            -2.0 * z_mid - pow2 + 1.0,
        ],
        (SchemeId.Mid2, 2): [
            1.0 + 2.0 * z_down - 3.0 * z_mid,
            -4.0 * z_down + 6.0 * z_mid + pow2 - 2.0,
            1.0 + 2.0 * z_down - 3.0 * z_mid - pow2,
        ],
        (SchemeId.Mid2, 3): [
            1.0 + 2.0 * z_down - 3.0 * z_mid,
            2.0 ** -alpha - 4.0 * z_down + 4.0 * z_mid,
            2.0 * z_down + z_mid - 2.0 * (2.0 ** -alpha - pow3) - 3.0,
            2.0 - 2.0 * z_mid - 2.0 * pow3 + 2.0 ** -alpha,
        ],
        (SchemeId.Right2mAlpha, 2): [
            z_mid - z_up,
            2.0 * z_up - 2.0 * z_mid - right2_jump,
            z_mid - z_up + right2_jump,
        ],
        (SchemeId.Right3mAlpha, 2): [
            -(alpha + 2.0) / (right3_scale * alpha),
            4.0 / right3_scale,
            (2.0 - 3.0 * alpha) / (right3_scale * alpha),
        ],
        (SchemeId.Right3mAlpha, 3): [
            -0.5 * z_down + 1.5 * z_mid - z_up,
            1.5 * z_down + 3.0 * z_up - 4.5 * z_mid - 0.5 * (alpha + 4.0) * right3_bump,
            -1.5 * z_down + 4.5 * z_mid - 3.0 * z_up + 2.0 * (alpha + 1.0) * right3_bump,
            0.5 * z_down + z_up - 1.5 * z_mid - 1.5 * alpha * right3_bump,
        ],
    }


def test_criterion_13_closed_form_weights():
    """The additive tail equals its closed forms; small-n vectors match."""
    for alpha in (0.25, 0.5, 0.75, 0.9):
        for n in (6, 12, 40, 100, 200):
            built = build_weights(SchemeId.Right3mAlpha, alpha, n).weights
            for built_entry, closed_entry in zip(built[-3:], _closed_form_tail(alpha, n)):
                assert abs(built_entry - closed_entry) <= 1e-10, (alpha, n)

    for alpha in (0.25, 0.5, 0.75, 0.9):
        for (scheme, n), reference in _small_n_vectors(alpha).items():
            built = build_weights(scheme, alpha, n).weights
            assert len(built) == len(reference)
            for built_entry, closed_entry in zip(built, reference):
                assert abs(built_entry - closed_entry) <= 1e-12, (scheme.name, n, alpha)
    _announce(13, "tail closed forms within 1e-10, small-n vectors within 1e-12")
