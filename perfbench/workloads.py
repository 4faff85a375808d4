"""The three workloads: seeded inputs, the library calls of each operation,
and a check of every result.

An operation's ``run`` makes only library calls and is what gets timed.
Its ``check(result, scale)`` returns ``(ok, errors)``; ``scale`` multiplies
every observed error, so ``check(result, 1e3)`` is the perturbed result the
self-test expects to fail.  ``errors`` feed the accuracy metric.

Error checks scale with the grid: an error passes when it is at most
``C * h**order`` for the scheme's nominal order (plus, for one-shot
stencils, the rounding floor of the weighted sum).  A single flat
tolerance would be wrong: the low-order schemes correctly exceed 0.1 at
n = 64 while the third-order ones reach 1e-14 at n = 40960.  The
constants sit at least twice above the largest ``error / h**order`` seen
for alpha in [0.2, 0.8] on the unchanged library, and low enough that an
error 1e3 times larger fails on most operations.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import caputofd as cf
from caputofd import SchemeId

#: Observed solve error / h**order on the unchanged library lies in
#: [0.069, 16.5] for alpha in [0.2, 0.8]; stencil error in [0, 16.1].
SOLVE_ERROR_CONST = 40.0
STENCIL_ERROR_CONST = 40.0
#: Fourth-order ladder rungs, in operator units: observed in [5e-4, 0.02].
LADDER_ERROR_CONST = 0.2
LADDER_ORDER = 4.0
#: Rounding allowance of a one-shot stencil sum, in units of
#: eps * sum|w_k y_k| / (|C| h^alpha).
ROUNDING_ULPS = 64.0

ALPHA_RANGE = (0.2, 0.8)

SOLVE_N = 40960
SOLVE_PAIRS = tuple(
    (label, scheme)
    for label in ("II", "III", "exp")
    for scheme in (SchemeId.L1, SchemeId.Mid2, SchemeId.Right3mAlpha)
)
#: Damping of the ``exp`` problem: negative, so the march cannot be
#: replaced by a solve that is only valid for D >= 0.
EXP_DAMPING = -1.0

#: Closed-form catalog functions that no scheme reproduces exactly, so
#: every stencil error is a real truncation error, not rounding.
STENCIL_FUNCTIONS = ("exp", "cos2pi", "arctan", "log1p")
STENCIL_N = (2**6, 2**10, 2**14, 2**16)
STENCIL_X = 1.0
#: The fourth-order ladders of the paper's pointwise table: function and
#: evaluation point; zeta_shift2 has no closed form and goes through the
#: quadrature oracle.
LADDERS = (("arctan", 1.0), ("log1p", 2.0), ("zeta_shift2", 3.0))
LADDER_H0 = 0.05
LADDER_LEVELS = 5


@dataclass(frozen=True)
class Op:
    label: str
    kind: str  # which check applies; the self-test covers each kind
    run: Callable[[], object]
    check: Callable[[object, float], tuple]


def draw_alphas(rng: random.Random, k: int) -> list[float]:
    """``k`` orders in ALPHA_RANGE, one per equal stratum, in seeded order."""
    lo, hi = ALPHA_RANGE
    alphas = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(alphas)
    return alphas


def golden_ops(lib, seed: int) -> list[Op]:
    """All 30 reference columns; the seed only permutes their order."""
    tables = list(cf.golden_catalog().values())
    random.Random(seed).shuffle(tables)
    return [Op(t.table_id, "golden", functools.partial(lib.run_golden, t),
               functools.partial(_check_golden, t)) for t in tables]


def _check_golden(table, result, scale=1.0):
    rows, report = result
    if scale != 1.0:
        rows = [dataclasses.replace(r, error=r.error * scale) for r in rows]
        report = cf.compare_golden(rows, table)
    errors = [] if table.divergent else [r.error for r in rows]
    return report.all_passed, errors


def solve_ops(lib, seed: int) -> list[Op]:
    """stability_check + solve at n = 40960 for 3 problems x 3 schemes."""
    alphas = draw_alphas(random.Random(seed), len(SOLVE_PAIRS))
    ops = []
    for (label, scheme), alpha in zip(SOLVE_PAIRS, alphas):
        problems = {p.label: p for p in cf.equation_catalog(alpha, D=EXP_DAMPING)}
        problem = lib.problem(problems[label])

        def run(problem=problem, scheme=scheme):
            verdict = lib.stability_check(problem, scheme, SOLVE_N)
            return verdict, lib.solve(problem, scheme, SOLVE_N)

        ops.append(Op(f"{label}/{scheme.value}/a={alpha:.4f}", "solve", run,
                      functools.partial(_check_solve, problem, scheme)))
    return ops


def _check_solve(problem, scheme, result, scale=1.0):
    verdict, sol = result
    guaranteed = verdict is cf.StabilityVerdict.GuaranteedConvergent
    if sol.max_error is None:
        return False, []
    error = sol.max_error * scale
    bound = SOLVE_ERROR_CONST * sol.h ** cf.nominal_order(scheme, problem.alpha)
    ok = (
        guaranteed == (problem.D > 0.0)
        and not sol.diverged
        and bool(np.all(np.isfinite(sol.u)))
        and error <= bound
    )
    return ok, [error]


def stencil_ops(lib, seed: int) -> list[Op]:
    """One-shot stencils for every scheme and size, plus three ladders.

    The seed draws one order per function and the function order; each
    function then runs all 10 schemes at every n.
    """
    rng = random.Random(seed)
    catalog = cf.function_catalog()
    names = list(STENCIL_FUNCTIONS)
    rng.shuffle(names)
    ops = []
    for name, alpha in zip(names, draw_alphas(rng, len(names))):
        f = catalog[name]
        reference = f.exact_caputo(alpha, STENCIL_X)
        for n in STENCIL_N:
            for scheme in SchemeId:
                def run(f=f, alpha=alpha, n=n, scheme=scheme):
                    wv = lib.build_weights(scheme, alpha, n)
                    path = lib.sample_path(f, STENCIL_X, n)
                    return lib.apply_stencil(wv, path), lib.validate_weights(wv), wv, path

                ops.append(Op(f"{name}/{scheme.value}/n={n}/a={alpha:.4f}", "stencil", run,
                              functools.partial(_check_stencil, f, reference)))
    for (name, x), alpha in zip(LADDERS, draw_alphas(rng, len(LADDERS))):
        run = functools.partial(lib.approximation_ladder, catalog[name], alpha, x,
                                LADDER_H0, LADDER_LEVELS)
        ops.append(Op(f"ladder/{name}/a={alpha:.4f}", "ladder", run, _check_ladder))
    return ops


def _stencil_order(scheme: SchemeId, alpha: float, f) -> float:
    """Nominal order; the raw head-corrected schemes are first order when y'(0) != 0."""
    order = cf.nominal_order(scheme, alpha)
    if scheme in (SchemeId.MidRaw, SchemeId.RightRaw) and f.first_deriv_at_zero != 0.0:
        order = min(order, 1.0)
    return order


def _check_stencil(f, reference, result, scale=1.0):
    value, report, wv, path = result
    error = abs(value - reference) * scale
    h = path.h
    rounding = (ROUNDING_ULPS * np.finfo(float).eps
                * float(np.sum(np.abs(wv.weights * path.values)))
                / abs(wv.norm * h**wv.alpha))
    bound = STENCIL_ERROR_CONST * h ** _stencil_order(wv.scheme, wv.alpha, f) + rounding
    return report.all_passed and error <= bound, [error]


def _check_ladder(rows, scale=1.0):
    errors = [r.error * scale for r in rows]
    ok = all(not r.failed and e <= LADDER_ERROR_CONST * r.h**LADDER_ORDER
             for r, e in zip(rows, errors))
    return ok, errors


WORKLOADS = {"golden": golden_ops, "solve_large": solve_ops, "stencil": stencil_ops}


def err_digits(errors: list[float]) -> float:
    """Mean number of correct digits, ``-mean(log10(error))``; errors are
    floored at 1e-16 so an exact hit counts as full double precision."""
    return -math.fsum(math.log10(max(e, 1e-16)) for e in errors) / len(errors)
