"""Convergence ladders and comparison against the bundled reference tables.

A *ladder* runs one approximation on a sequence of grids with ``h`` halving
at each level and reports the observed error together with the empirical
order ``log2(error(2h) / error(h))``.  ``compare_golden`` then checks a
computed ladder cell by cell against one fixture column from
:mod:`caputofd.golden_data`, with tolerances that follow how many
significant digits the fixture actually prints.

Comparison policy
-----------------
* error cells: within 2% relative, widened to 5% when the fixture prints
  only two significant digits;
* order cells: within the fixture's ``order_atol`` (0.01, or 0.02 for the
  slowly drifting 1-alpha solver columns);
* ``noise-floor`` cells: the printed value sits at the reference data's
  rounding floor, so the check only asks for agreement within a factor of
  two;
* ``order-unpinned`` cells: the printed order is dominated by that same
  noise and is not compared;
* divergent columns: every magnitude must agree within a factor of 100 and
  the recomputed column must itself look divergent (all errors above 1e2);
  order cells carry no information there and are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .caputo import (
    QuadratureError,
    TestFunction,
    apply_stencil,
    caputo_quadrature,
    fourth_order_eval,
    function_catalog,
    sample_path,
)
from .golden_data import (
    NOISE_FLOOR,
    ORDER_UNPINNED,
    GoldenRow,
    GoldenTable,
    RecomputeSpec,
    golden_catalog,
)
from .relaxation import NS_LABELS, RelaxationProblem, StartMode, equation_catalog, solve
from .schemes import SchemeId, build_weights
from .specfun import NonConvergenceError, gamma

__all__ = [
    "CellCheck",
    "ComparisonReport",
    "ConvergenceRow",
    "GoldenRow",
    "GoldenTable",
    "LadderMismatchError",
    "RecomputeSpec",
    "approximation_ladder",
    "compare_golden",
    "convergence_ladder",
    "golden_catalog",
    "grid_intervals",
    "pointwise_error",
    "pointwise_reference",
    "run_golden",
]

#: Errors at or below this are treated as pure rounding noise: the order
#: estimate carries no information, so it is suppressed (left as ``None``).
_ROUNDING_FLOOR = 1e-14

#: A recomputed column counts as divergent when every rung's error exceeds
#: this; the benchmark solutions are O(1), so anything past 1e2 has left
#: the convergent regime by orders of magnitude.
_DIVERGED_ERROR = 1e2


class LadderMismatchError(ValueError):
    """The computed rows do not cover the fixture's h ladder."""


@dataclass(frozen=True)
class ConvergenceRow:
    """One rung of a ladder.

    Attributes:
        h: grid spacing.
        error: observed error (max over the grid for solver ladders,
            pointwise for approximation ladders); ``inf`` when the rung
            failed outright.
        order: ``log2`` error ratio against the previous rung; ``None`` on
            the first rung, after a failed rung, or when either error sits
            at the rounding floor.
        failed: the computation raised instead of producing a value.
        cause: ``"<exception type>: <message>"`` of a failed rung, else empty.
    """

    h: float
    error: float
    order: Optional[float] = None
    failed: bool = False
    cause: str = ""

    def __post_init__(self) -> None:
        if not self.h > 0.0:
            raise ValueError(f"grid spacing must be positive, got h={self.h!r}")
        if not self.failed and not self.error >= 0.0:
            raise ValueError(f"error must be nonnegative, got {self.error!r}")
        if self.order is not None and not math.isfinite(self.order):
            raise ValueError(f"order must be finite when present, got {self.order!r}")


@dataclass(frozen=True)
class CellCheck:
    """Outcome of one golden-cell comparison.

    ``allowance_used`` is the deviation as a fraction of the allowed budget
    (1.0 sits exactly on the tolerance), which makes checks of different
    kinds sortable on a common scale.
    """

    h: float
    kind: str  # "error" | "order" | "magnitude" | "column"
    expected: float
    computed: float
    allowance_used: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    """Cell-by-cell verdicts for one fixture column."""

    table_id: str
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)

    def worst_deviations(self, limit: int = 5) -> list:
        """The checks that came closest to (or past) their budget."""
        ranked = sorted(self.checks, key=lambda c: (-c.allowance_used, c.h, c.kind))
        return ranked[:limit]

    def summary(self) -> str:
        n_pass = sum(1 for c in self.checks if c.passed)
        verdict = "PASS" if self.all_passed else "FAIL"
        return f"{self.table_id}: {verdict} ({n_pass}/{len(self.checks)} checks)"


def _run_levels(error_at: Callable[[int], float], ns: Sequence[int]) -> list:
    """``(error, cause)`` for each grid size in ``ns``, in order.

    A rung that fails numerically comes back as ``(inf, "<type>: <message>")``
    and the ladder goes on; a rung that succeeds has an empty cause.  Any
    other exception, such as a ``NameError`` or ``TypeError`` raised by a
    forcing, is a programming error and propagates.
    """
    outcomes = []
    for n in ns:
        try:
            outcomes.append((float(error_at(n)), ""))
        except (ArithmeticError, ValueError, QuadratureError, NonConvergenceError) as exc:
            outcomes.append((math.inf, f"{type(exc).__name__}: {exc}"))
    return outcomes


def _assemble(hs: Sequence[float], outcomes: Sequence[tuple]) -> list:
    rows = []
    prev: Optional[float] = None
    for h, (error, cause) in zip(hs, outcomes):
        failed = bool(cause)
        order = None
        if (
            not failed
            and prev is not None
            and prev > _ROUNDING_FLOOR
            and error > _ROUNDING_FLOOR
        ):
            order = math.log2(prev / error)
        rows.append(ConvergenceRow(h=h, error=error, order=order, failed=failed, cause=cause))
        prev = None if failed else error
    return rows


def grid_intervals(x_end: float, h: float) -> int:
    """Number of steps of size ``h`` across ``[0, x_end]``.

    Raises:
        ValueError: unless both are positive and ``h`` divides the interval
            evenly (to 1e-9 relative) into a finite count of one or more steps.
    """
    if not x_end > 0.0:
        raise ValueError(f"x must be positive, got {x_end!r}")
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h!r}")
    n = x_end / h
    if not math.isfinite(n):
        raise ValueError(f"h={h!r} divides [0, {x_end!r}] into too many steps to count")
    if round(n) == 0 or abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ValueError(f"h={h!r} does not divide [0, {x_end!r}] into one or more even steps")
    return round(n)


def _ladder_grid(x_end: float, h0: float, levels: int) -> tuple:
    if levels < 2:
        raise ValueError(f"a ladder needs at least two levels, got {levels}")
    n0 = grid_intervals(x_end, h0)
    ns = [n0 * 2**j for j in range(levels)]
    return ns, [x_end / n for n in ns]


def convergence_ladder(
    problem: RelaxationProblem,
    scheme: SchemeId,
    start: Optional[StartMode],
    h0: float,
    levels: int,
) -> list:
    """Solve ``problem`` on ``levels`` grids, halving h each time.

    Args:
        problem: relaxation problem with an ``exact`` solution attached
            (needed to measure errors).
        scheme: approximation used inside the solver.
        start: first-step mode; ``None`` picks the scheme's default.
        h0: coarsest spacing; must divide ``problem.x_end`` evenly.
        levels: number of rungs (at least 2, so one order estimate exists).

    Returns:
        list of ConvergenceRow, coarsest first.  A rung whose solve fails
        numerically (an ``ArithmeticError``, ``ValueError``,
        ``QuadratureError`` or ``NonConvergenceError``) is marked ``failed``
        and the ladder continues; any other exception propagates.
    """
    if problem.exact is None:
        raise ValueError("problem has no exact solution to measure errors against")
    ns, hs = _ladder_grid(problem.x_end, h0, levels)

    outcomes = _run_levels(lambda n: solve(problem, scheme, n, start).max_error, ns)
    return _assemble(hs, outcomes)


def approximation_ladder(
    f: TestFunction,
    alpha: float,
    x: float,
    h0: float,
    levels: int,
    *,
    scheme: Optional[SchemeId] = None,
) -> list:
    """Evaluate one pointwise approximation of ``f`` on a halving ladder.

    By default each rung runs the fourth-order endpoint formula and the
    error is reported in operator units — the raw gap multiplied by
    ``|Gamma(-alpha)|`` — matching the convention of the bundled pointwise
    reference column (table 8).  Passing ``scheme`` ladders that weight
    stencil instead, with errors left in plain derivative units.

    The reference value comes from :func:`pointwise_reference`; a
    quadrature failure propagates, since without a reference no rung is
    measurable.  The grid is checked before the reference is computed.

    Returns:
        list of ConvergenceRow, coarsest first.
    """
    ns, hs = _ladder_grid(x, h0, levels)
    reference = pointwise_reference(f, alpha, x)
    outcomes = _run_levels(lambda n: pointwise_error(f, alpha, x, n, scheme, reference)[1], ns)
    return _assemble(hs, outcomes)


def pointwise_reference(f: TestFunction, alpha: float, x: float) -> float:
    """Exact ``f^(alpha)(x)``: the closed form if ``f`` has one, else quadrature at 1e-12."""
    if f.exact_caputo is not None:
        return f.exact_caputo(alpha, x)
    return caputo_quadrature(f.derivatives[0], alpha, x, tol=1e-12)


def pointwise_error(
    f: TestFunction, alpha: float, x: float, n: int, scheme: Optional[SchemeId], reference: float
) -> tuple:
    """``(value, error)`` of one pointwise approximation with ``h = x/n``.

    ``scheme=None`` runs the fourth-order endpoint formula, whose error is in
    operator units (times ``|Gamma(-alpha)|``); a stencil's error is the plain gap.
    """
    if scheme is None:
        value = fourth_order_eval(f, alpha, x, n)
        return value, abs(gamma(-alpha)) * abs(value - reference)
    value = apply_stencil(build_weights(scheme, alpha, n), sample_path(f, x, n))
    return value, abs(value - reference)


def _sig_digits(text: str) -> int:
    """Number of significant digits in a printed numeral."""
    mantissa = text.lower().split("e")[0]
    digits = "".join(ch for ch in mantissa if ch.isdigit()).lstrip("0")
    return len(digits)


def _match_rows(rows: Sequence[ConvergenceRow], golden: GoldenTable) -> list:
    by_h = list(rows)
    matched = []
    for g in golden.rows:
        hits = [r for r in by_h if abs(r.h - g.h) <= 1e-9 * g.h]
        if len(hits) != 1:
            raise LadderMismatchError(
                f"{golden.table_id}: expected exactly one computed row at "
                f"h={g.h!r}, found {len(hits)}"
            )
        matched.append((g, hits[0]))
    return matched


def _check_error(g: GoldenRow, row: ConvergenceRow) -> CellCheck:
    expected = float(g.error_text)
    if row.failed:
        return CellCheck(g.h, "error", expected, math.inf, math.inf, False,
                         "computed rung failed")
    if NOISE_FLOOR in g.flags:
        used = abs(math.log2(row.error / expected)) if row.error > 0.0 else math.inf
        return CellCheck(g.h, "error", expected, row.error, used, used <= 1.0,
                         "noise floor: factor-2 window")
    rtol = 0.05 if _sig_digits(g.error_text) <= 2 else 0.02
    used = abs(row.error - expected) / (rtol * expected)
    return CellCheck(g.h, "error", expected, row.error, used, used <= 1.0,
                     f"rtol={rtol:.0%}")


def _check_order(g: GoldenRow, row: ConvergenceRow, table: GoldenTable) -> CellCheck:
    expected = float(g.order_text)
    if ORDER_UNPINNED in g.flags:
        computed = math.nan if row.order is None else row.order
        return CellCheck(g.h, "order", expected, computed, 0.0, True,
                         "not compared: reference-noise row")
    if row.failed or row.order is None:
        return CellCheck(g.h, "order", expected, math.nan, math.inf, False,
                         "no computed order")
    used = abs(row.order - expected) / table.order_atol
    return CellCheck(g.h, "order", expected, row.order, used, used <= 1.0,
                     f"atol={table.order_atol}")


def _check_magnitude(g: GoldenRow, row: ConvergenceRow) -> CellCheck:
    expected = float(g.error_text)
    if row.failed or not row.error > 0.0:
        return CellCheck(g.h, "magnitude", expected, math.inf, math.inf, False,
                         "computed rung failed")
    used = abs(math.log10(row.error / expected)) / 2.0
    return CellCheck(g.h, "magnitude", expected, row.error, used, used <= 1.0,
                     "diverged column: factor-100 window")


def compare_golden(
    rows: Sequence[ConvergenceRow], golden: GoldenTable
) -> ComparisonReport:
    """Check computed ladder rows against one fixture column.

    Rows are matched to fixture rows by h, so callers may pass extra rungs
    (every fixture ladder has an unprinted coarse seed rung) in any order;
    the verdict is deterministic and independent of row ordering.

    Raises:
        LadderMismatchError: some fixture h has no (or no unique) computed row.
    """
    matched = _match_rows(rows, golden)
    checks = []
    if golden.divergent:
        for g, row in matched:
            checks.append(_check_magnitude(g, row))
        floor = min(row.error for _, row in matched)
        looks_divergent = floor > _DIVERGED_ERROR
        checks.append(CellCheck(
            matched[0][0].h, "column", math.inf,
            floor, 0.0 if looks_divergent else math.inf, looks_divergent,
            "column must be flagged divergent (all errors above 1e2)",
        ))
    else:
        for g, row in matched:
            checks.append(_check_error(g, row))
            checks.append(_check_order(g, row, golden))
    return ComparisonReport(table_id=golden.table_id, checks=tuple(checks))


def run_golden(table: GoldenTable) -> tuple:
    """Recompute one fixture column from scratch and compare against it.

    Returns:
        ``(rows, report)``: the freshly computed ladder (including the
        unprinted seed rung) and its ComparisonReport.
    """
    spec = table.spec
    if spec.kind == "solver":
        scheme, start = NS_LABELS[spec.scheme_label]
        problems = {p.label: p for p in equation_catalog(spec.alpha, D=spec.damping)}
        rows = convergence_ladder(problems[spec.equation], scheme, start, spec.h0, spec.levels)
    elif spec.kind == "pointwise":
        f = function_catalog()[spec.function]
        rows = approximation_ladder(f, spec.alpha, spec.x, spec.h0, spec.levels)
    else:
        raise ValueError(f"unknown recompute kind {spec.kind!r}")
    return rows, compare_golden(rows, table)
