"""Command-line front end: every operation in the package behind one tool.

Subcommands
-----------
``weights``   print one stencil ``w_0..w_n``.
``coeffs``    leading error-coefficient magnitudes C1/C9/C12 on an alpha grid.
``caputo``    pointwise derivative approximation, single value or ladder.
``solve``     run the relaxation solver on a catalog equation, full grid out.
``table``     convergence ladder (h, error, order) for a catalog equation.
``golden``    recompute one bundled reference table and compare cell by cell.
``check``     weight-property report for one stencil.

Conventions shared by all subcommands: data goes to stdout, diagnostics to
stderr, and identical invocations produce byte-identical output.  CSV cells
print the full shortest round-trip decimal form (rounding is a plotter's
job); JSON output replaces non-finite values with ``null``.  Scheme names
are the lowercase identifiers (``l1``, ``mid2malpha``, ...) or the ``NS[k]``
solver labels, which also imply their starting-value rule.

Exit codes: 0 success; 1 usage error; 2 numerical failure (divergence,
quadrature failure, failed ladder rungs, failed property checks);
3 golden-comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .analysis import (
    approximation_ladder,
    compare_golden,
    convergence_ladder,
    golden_catalog,
    run_golden,
)
from .caputo import (
    QuadratureError,
    apply_stencil,
    caputo_quadrature,
    fourth_order_eval,
    function_catalog,
    sample_path,
)
from .relaxation import (
    NS_LABELS,
    SingularDenominatorError,
    StartMode,
    equation_catalog,
    solve,
)
from .schemes import SchemeId, build_weights, expansion_coefficients, validate_weights
from .specfun import NonConvergenceError, gamma

__all__ = ["main", "run"]

_EQUATION_NAMES = ("eq1", "eq2", "eq3", "relax:D")
_START_MODES = {"l1": StartMode.L1Start, "taylor": StartMode.TaylorStart}


class _UsageError(Exception):
    """Bad flags or names; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _scheme_aliases() -> dict:
    aliases = {s.name.lower(): (s, None) for s in SchemeId}
    for label, (scheme, mode) in NS_LABELS.items():
        aliases[label.lower()] = (scheme, mode)
    return aliases


def _parse_scheme(name: str):
    aliases = _scheme_aliases()
    try:
        return aliases[name.lower()]
    except KeyError:
        valid = ", ".join(sorted(aliases))
        raise _UsageError(f"unknown scheme {name!r}; valid schemes: {valid}") from None


def _parse_function(name: str):
    catalog = function_catalog()
    try:
        return catalog[name]
    except KeyError:
        valid = ", ".join(sorted(catalog))
        raise _UsageError(f"unknown function {name!r}; valid functions: {valid}") from None


def _resolve_problem(text: str, alpha: float):
    labels = {"eq1": "I", "eq2": "II", "eq3": "III"}
    damping = 1.0
    if text in labels:
        label = labels[text]
    elif text.startswith("relax:"):
        label = "exp"
        try:
            damping = float(text.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad damping in {text!r}; expected relax:<number>") from None
    else:
        valid = ", ".join(_EQUATION_NAMES)
        raise _UsageError(f"unknown equation {text!r}; valid equations: {valid}") from None
    problems = {p.label: p for p in equation_catalog(alpha, D=damping)}
    return problems[label]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _check_alpha(alpha: float) -> float:
    _require(0.0 < alpha < 1.0, f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    return alpha


def _intervals(x_end: float, h: float) -> int:
    _require(h > 0.0, f"h must be positive, got {h!r}")
    n = x_end / h
    _require(
        abs(n - round(n)) <= 1e-9 * max(1.0, n),
        f"h={h!r} does not divide the interval [0, {x_end!r}] evenly",
    )
    return round(n)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _emit_csv(header: Sequence[str], rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])


def _json_number(value):
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _emit_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_ladder(rows, fmt: str) -> None:
    if fmt == "json":
        _emit_json({
            "rows": [
                {"h": r.h, "error": _json_number(r.error), "order": _json_number(r.order)}
                for r in rows
            ]
        })
    else:
        _emit_csv(["h", "error", "order"], [(r.h, r.error, r.order) for r in rows])


def _failed_rung_exit(rows) -> int:
    failed = [r for r in rows if r.failed]
    for r in failed:
        print(f"warning: ladder rung failed at h = {r.h!r}: {r.cause}", file=sys.stderr)
    return 2 if failed else 0


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_weights(ns) -> int:
    scheme, _ = _parse_scheme(ns.scheme)
    _check_alpha(ns.alpha)
    _require(ns.n >= 2, f"n must be at least 2, got {ns.n}")
    wv = build_weights(scheme, ns.alpha, ns.n)
    if ns.format == "json":
        _emit_json({
            "scheme": scheme.name.lower(),
            "alpha": ns.alpha,
            "n": ns.n,
            "norm": wv.norm,
            "weights": [float(w) for w in wv.weights],
        })
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for k, w in enumerate(wv.weights):
            writer.writerow([str(k), repr(float(w))])
    return 0


def _parse_grid(text: str):
    parts = text.split(":")
    _require(len(parts) == 3, f"bad grid {text!r}; expected LO:HI:STEP")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"bad grid {text!r}; expected three numbers LO:HI:STEP") from None
    _require(step > 0.0, f"grid step must be positive, got {step!r}")
    _require(lo <= hi, f"grid start {lo!r} exceeds end {hi!r}")
    count = int(round((hi - lo) / step)) + 1
    alphas = [
        round(lo + i * step, 12)
        for i in range(count)
        if lo + i * step <= hi + 1e-12 * max(1.0, hi)
    ]
    for a in alphas:
        _check_alpha(a)
    return alphas


def _cmd_coeffs(ns) -> int:
    alphas = _parse_grid(ns.alpha_grid)
    triples = [(a, *expansion_coefficients(a)) for a in alphas]
    if ns.format == "json":
        _emit_json({
            "rows": [
                {"alpha": a, "C1": c1, "C9": c9, "C12": c12}
                for a, c1, c9, c12 in triples
            ]
        })
    else:
        _emit_csv(["alpha", "C1", "C9", "C12"], triples)
    return 0


def _cmd_caputo(ns) -> int:
    _require(
        bool(ns.fourth_order) != (ns.scheme is not None),
        "exactly one of --scheme or --fourth-order is required",
    )
    f = _parse_function(ns.function)
    _check_alpha(ns.alpha)
    _require(ns.x > 0.0, f"x must be positive, got {ns.x!r}")
    scheme = None if ns.fourth_order else _parse_scheme(ns.scheme)[0]

    if ns.levels is not None:
        _require(ns.levels >= 2, f"a ladder needs at least two levels, got {ns.levels}")
        rows = approximation_ladder(f, ns.alpha, ns.x, ns.h, ns.levels, scheme=scheme)
        _emit_ladder(rows, ns.format)
        return _failed_rung_exit(rows)

    n = _intervals(ns.x, ns.h)
    if f.exact_caputo is not None:
        reference = f.exact_caputo(ns.alpha, ns.x)
    else:
        reference = caputo_quadrature(f.derivatives[0], ns.alpha, ns.x, tol=1e-12)
    if scheme is None:
        value = fourth_order_eval(f, ns.alpha, ns.x, n)
        error = abs(gamma(-ns.alpha)) * abs(value - reference)
    else:
        value = apply_stencil(build_weights(scheme, ns.alpha, n), sample_path(f, ns.x, n))
        error = abs(value - reference)
    if ns.format == "json":
        _emit_json({"value": value, "reference": reference, "error": error})
    else:
        _emit_csv(["value", "reference", "error"], [(value, reference, error)])
    return 0


def _start_mode(ns, alias_mode) -> Optional[StartMode]:
    if ns.start is not None:
        return _START_MODES[ns.start]
    return alias_mode


def _cmd_solve(ns) -> int:
    _check_alpha(ns.alpha)
    scheme, alias_mode = _parse_scheme(ns.scheme)
    problem = _resolve_problem(ns.equation, ns.alpha)
    n = _intervals(problem.x_end, ns.h)
    _require(n >= 2, f"h={ns.h!r} leaves fewer than two steps on [0, {problem.x_end!r}]")
    result = solve(problem, scheme, n, _start_mode(ns, alias_mode))
    xs = np.arange(n + 1) * result.h
    exact = problem.exact(xs)
    errors = np.abs(result.u - exact)
    if ns.format == "json":
        _emit_json({
            "rows": [
                {
                    "m": int(m),
                    "x": float(xs[m]),
                    "u": _json_number(result.u[m]),
                    "exact": float(exact[m]),
                    "error": _json_number(errors[m]),
                }
                for m in range(n + 1)
            ]
        })
    else:
        _emit_csv(
            ["m", "x", "u", "exact", "error"],
            ((m, xs[m], result.u[m], exact[m], errors[m]) for m in range(n + 1)),
        )
    if result.diverged:
        print("warning: solution magnitude crossed the divergence threshold", file=sys.stderr)
        return 2
    return 0


def _cmd_table(ns) -> int:
    _check_alpha(ns.alpha)
    scheme, alias_mode = _parse_scheme(ns.scheme)
    problem = _resolve_problem(ns.equation, ns.alpha)
    _require(ns.levels >= 2, f"a ladder needs at least two levels, got {ns.levels}")
    rows = convergence_ladder(problem, scheme, _start_mode(ns, alias_mode), ns.h0, ns.levels)
    _emit_ladder(rows, ns.format)
    return _failed_rung_exit(rows)


def _cmd_golden(ns) -> int:
    catalog = golden_catalog()
    prefix = f"table{ns.table}:"
    columns = [t for tid, t in catalog.items() if tid.startswith(prefix)]
    _require(
        bool(columns),
        f"no reference table {ns.table}; valid tables: 1..10",
    )
    all_checks = []
    reports = []
    for table in columns:
        _, report = run_golden(table)
        reports.append(report)
        for c in report.checks:
            all_checks.append((
                report.table_id, c.h, c.kind, c.expected, c.computed,
                c.allowance_used, "pass" if c.passed else "fail",
            ))
    if ns.format == "json":
        _emit_json({
            "checks": [
                {
                    "column": col, "h": h, "kind": kind,
                    "expected": _json_number(exp), "computed": _json_number(got),
                    "allowance_used": _json_number(used), "status": status,
                }
                for col, h, kind, exp, got, used, status in all_checks
            ]
        })
    else:
        _emit_csv(
            ["column", "h", "kind", "expected", "computed", "allowance_used", "status"],
            all_checks,
        )
    for report in reports:
        print(report.summary(), file=sys.stderr)
        if not report.all_passed:
            for check in report.worst_deviations(3):
                print(f"  {check}", file=sys.stderr)
    return 0 if all(r.all_passed for r in reports) else 3


def _cmd_check(ns) -> int:
    scheme, _ = _parse_scheme(ns.scheme)
    _check_alpha(ns.alpha)
    _require(ns.n >= 2, f"n must be at least 2, got {ns.n}")
    report = validate_weights(build_weights(scheme, ns.alpha, ns.n))
    if ns.format == "json":
        _emit_json({
            "scheme": scheme.name.lower(),
            "alpha": ns.alpha,
            "n": ns.n,
            "checks": [
                {
                    "name": c.name, "applicable": bool(c.applicable),
                    "passed": None if c.passed is None else bool(c.passed),
                    "detail": c.detail,
                }
                for c in report.checks
            ],
        })
    else:
        _emit_csv(
            ["name", "applicable", "passed", "detail"],
            (
                (c.name, str(c.applicable).lower(),
                 "" if c.passed is None else str(c.passed).lower(), c.detail)
                for c in report.checks
            ),
        )
    return 0 if report.all_passed else 2


# --------------------------------------------------------------------------
# parser assembly


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="caputofd",
        description="Caputo-derivative stencils, a fractional relaxation solver, "
                    "and convergence/golden-table tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("weights", help="print one stencil w_0..w_n")
    p.add_argument("--scheme", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_weights)

    p = sub.add_parser("coeffs", help="C1/C9/C12 error coefficients on an alpha grid")
    p.add_argument("--alpha-grid", required=True, metavar="LO:HI:STEP")
    _add_format(p)
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("caputo", help="pointwise derivative approximation")
    p.add_argument("--scheme")
    p.add_argument("--fourth-order", action="store_true",
                   help="use the fourth-order endpoint formula")
    p.add_argument("--function", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--levels", type=int, default=None,
                   help="run a halving ladder from h instead of one evaluation")
    _add_format(p)
    p.set_defaults(handler=_cmd_caputo)

    p = sub.add_parser("solve", help="solve a catalog relaxation equation")
    p.add_argument("--equation", required=True, metavar="|".join(_EQUATION_NAMES))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--start", choices=tuple(_START_MODES),
                   help="starting-value rule (default: scheme's own)")
    _add_format(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("table", help="convergence ladder for a catalog equation")
    p.add_argument("--equation", required=True, metavar="|".join(_EQUATION_NAMES))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--h0", type=float, required=True, help="coarsest spacing")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--start", choices=tuple(_START_MODES))
    _add_format(p)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("golden", help="recompute one bundled reference table")
    p.add_argument("--table", type=int, required=True, metavar="N")
    _add_format(p)
    p.set_defaults(handler=_cmd_golden)

    p = sub.add_parser("check", help="weight property report for one stencil")
    p.add_argument("--scheme", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_check)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` and execute one subcommand; returns the exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return ns.handler(ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        QuadratureError,
        SingularDenominatorError,
        NonConvergenceError,
        OverflowError,
        ZeroDivisionError,
        FloatingPointError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
