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
stderr, and identical invocations produce byte-identical output.  Every
table goes through one writer: CSV cells print the full shortest
round-trip decimal form (rounding is a plotter's job), and every JSON
table replaces non-finite values with ``null``.  Scheme names are the
lowercase identifiers (``l1``, ``mid2malpha``, ...) or the ``NS[k]`` solver
labels, which also imply their starting-value rule.  This module checks
only names and flag combinations; numeric arguments (alpha, n, x, h,
levels) are checked by the library, whose ``ValueError`` is a usage error.

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
    convergence_ladder,
    golden_catalog,
    grid_intervals,
    pointwise_error,
    pointwise_reference,
    run_golden,
)
from .caputo import QuadratureError, function_catalog
from .relaxation import (
    NS_LABELS,
    StartMode,
    equation_catalog,
    solve,
)
from .schemes import SchemeId, build_weights, expansion_coefficients, validate_weights
from .specfun import NonConvergenceError

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


def _pick(kind: str, table: dict, key: str, name: str):
    if key not in table:
        valid = ", ".join(sorted(table))
        raise _UsageError(f"unknown {kind} {name!r}; valid {kind}s: {valid}")
    return table[key]


def _parse_scheme(name: str):
    return _pick("scheme", _scheme_aliases(), name.lower(), name)


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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _json_cell(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return value if math.isfinite(value) else None


def _record(header: Sequence[str], row) -> dict:
    return {k: _json_cell(v) for k, v in zip(header, row)}


def _emit_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit(fmt: str, header: Sequence[str], rows, key: str, **head) -> None:
    """Write one table: a CSV header plus rows, or JSON ``{**head, key: [records]}``."""
    if fmt == "json":
        _emit_json({**head, key: [_record(header, row) for row in rows]})
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _emit_ladder(rows, fmt: str) -> int:
    """Write a ladder table; exit 2, with each cause on stderr, if a rung failed."""
    _emit(fmt, ["h", "error", "order"], [(r.h, r.error, r.order) for r in rows], "rows")
    failed = [r for r in rows if r.failed]
    for r in failed:
        print(f"warning: ladder rung failed at h = {r.h!r}: {r.cause}", file=sys.stderr)
    return 2 if failed else 0


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_weights(ns) -> int:
    scheme, _ = _parse_scheme(ns.scheme)
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
    return [
        round(lo + i * step, 12)
        for i in range(count)
        if lo + i * step <= hi + 1e-12 * max(1.0, hi)
    ]


def _cmd_coeffs(ns) -> int:
    rows = [(a, *expansion_coefficients(a)) for a in _parse_grid(ns.alpha_grid)]
    _emit(ns.format, ["alpha", "C1", "C9", "C12"], rows, "rows")
    return 0


def _cmd_caputo(ns) -> int:
    _require(
        bool(ns.fourth_order) != (ns.scheme is not None),
        "exactly one of --scheme or --fourth-order is required",
    )
    f = _pick("function", function_catalog(), ns.function, ns.function)
    scheme = None if ns.fourth_order else _parse_scheme(ns.scheme)[0]

    if ns.levels is not None:
        rows = approximation_ladder(f, ns.alpha, ns.x, ns.h, ns.levels, scheme=scheme)
        return _emit_ladder(rows, ns.format)

    n = grid_intervals(ns.x, ns.h)
    reference = pointwise_reference(f, ns.alpha, ns.x)
    value, error = pointwise_error(f, ns.alpha, ns.x, n, scheme, reference)
    header, row = ["value", "reference", "error"], (value, reference, error)
    if ns.format == "json":
        _emit_json(_record(header, row))
    else:
        _emit(ns.format, header, [row], "rows")
    return 0


def _solver_inputs(ns) -> tuple:
    """``(problem, scheme, start)`` named by the solve and table flags."""
    scheme, alias_mode = _parse_scheme(ns.scheme)
    problem = _resolve_problem(ns.equation, ns.alpha)
    start = _START_MODES[ns.start] if ns.start is not None else alias_mode
    return problem, scheme, start


def _cmd_solve(ns) -> int:
    problem, scheme, start = _solver_inputs(ns)
    n = grid_intervals(problem.x_end, ns.h)
    result = solve(problem, scheme, n, start)
    xs = np.arange(n + 1) * result.h
    exact = problem.exact(xs)
    errors = np.abs(result.u - exact)
    _emit(
        ns.format,
        ["m", "x", "u", "exact", "error"],
        [(m, xs[m], result.u[m], exact[m], errors[m]) for m in range(n + 1)],
        "rows",
    )
    if result.diverged:
        print("warning: solution magnitude crossed the divergence threshold", file=sys.stderr)
        return 2
    return 0


def _cmd_table(ns) -> int:
    problem, scheme, start = _solver_inputs(ns)
    rows = convergence_ladder(problem, scheme, start, ns.h0, ns.levels)
    return _emit_ladder(rows, ns.format)


def _cmd_golden(ns) -> int:
    catalog = golden_catalog()
    prefix = f"table{ns.table}:"
    columns = [t for tid, t in catalog.items() if tid.startswith(prefix)]
    _require(
        bool(columns),
        f"no reference table {ns.table}; valid tables: 1..10",
    )
    reports = [run_golden(table)[1] for table in columns]
    rows = [
        (report.table_id, c.h, c.kind, c.expected, c.computed,
         c.allowance_used, "pass" if c.passed else "fail")
        for report in reports
        for c in report.checks
    ]
    _emit(
        ns.format,
        ["column", "h", "kind", "expected", "computed", "allowance_used", "status"],
        rows,
        "checks",
    )
    for report in reports:
        print(report.summary(), file=sys.stderr)
        if not report.all_passed:
            for check in report.worst_deviations(3):
                print(f"  {check}", file=sys.stderr)
    return 0 if all(r.all_passed for r in reports) else 3


def _cmd_check(ns) -> int:
    scheme, _ = _parse_scheme(ns.scheme)
    report = validate_weights(build_weights(scheme, ns.alpha, ns.n))
    _emit(
        ns.format,
        ["name", "applicable", "passed", "detail"],
        [(c.name, c.applicable, c.passed, c.detail) for c in report.checks],
        "checks",
        scheme=scheme.name.lower(),
        alpha=ns.alpha,
        n=ns.n,
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
    except (ArithmeticError, QuadratureError, NonConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
