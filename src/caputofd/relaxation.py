"""Time stepping for the linear fractional relaxation equation.

The initial-value problem solved here is

    y^(alpha)(x) + D*y(x) = F(x),    y(0) = y0,    0 < alpha < 1,

on a uniform grid over ``[0, x_end]``.  Any of the weight stencils from
:mod:`caputofd.schemes` can stand in for the fractional derivative; the
resulting marching scheme is

    u_m = (h^alpha * F(m*h) + sum_{k=1..m} lambda_k * u_{m-k}) / (lambda_0 + D*h^alpha)

with ``u_0 = y0`` and ``u_1`` supplied by a dedicated starting formula.

Because the tail weights change with the step count ``m``, a naive
implementation rebuilds the whole stencil every step and pays O(n^2) in
weight construction alone.  The solver below uses the stencil form of
:mod:`caputofd.schemes` instead: one head-corrected interior vector, plus
tail deltas computed once for every step count.  The delta at index
``m - j`` multiplies ``u_j``, so each step adds at most three tail terms
in ``u_0``, ``u_1`` and ``u_2`` to its history sum; :mod:`caputofd.schemes`
computes the tail coefficients.

Solves shorter than ``_NEAR_FIELD`` steps march one step at a time
(:func:`_march`, which imports scipy at its first run: apart from
:func:`~caputofd.specfun.mittag_leffler_1` on the negative real axis, the
package's only user of scipy).
Longer ones solve every step from 3 on in leaves of ``_LEAF`` steps, each
one matrix-vector product, whose older lags are a short sum of decaying
exponentials, 69 at 40960 steps (:func:`_leaves`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .caputo import exact_caputo_cos2pix, exact_caputo_exp, exact_caputo_power
from .schemes import (
    SchemeId,
    _ASYM_N,
    _L1_FAMILY,
    _MID_FAMILY,
    _interior_weights,
    _tail_deltas,
    scheme_norm,
)
from .specfun import _elementwise, alpha_constants

__all__ = [
    "NS_LABELS",
    "RelaxationProblem",
    "SingularDenominatorError",
    "SolveResult",
    "StabilityVerdict",
    "StartMode",
    "default_start_mode",
    "equation_catalog",
    "first_step",
    "solve",
    "stability_check",
]

#: Magnitude beyond which a trajectory is flagged as diverged (the run still
#: completes so the blow-up profile can be inspected).
_DIVERGENCE_LIMIT = 1e30

#: Picks the path: solves shorter than this march, and longer ones run
#: leaves from step 3 on.
_NEAR_FIELD = 4096

#: Leaves are this many steps wide.  A leaf sums the lags below its width
#: directly, at O(width) per step, and the older ones from exponential
#: states, at O(N).
_LEAF = 128


class StartMode(Enum):
    """How the first grid value ``u_1`` (an approximation to y(h)) is produced."""

    #: Implicit one-step value (y0 + Gamma(2-a)*h^a*F(h)) / (1 + Gamma(2-a)*D*h^a),
    #: accurate to O(h^2).  Needs nothing beyond the problem data.
    L1Start = "l1"

    #: Second-degree Taylor value y0 + y'(0)*h + y''(0)*h^2/2, accurate to
    #: O(h^3).  Requires the ``dy0``/``d2y0`` metadata on the problem.
    TaylorStart = "taylor"


class StabilityVerdict(Enum):
    """Advisory classification of a planned solve."""

    GuaranteedConvergent = "guaranteed-convergent"
    ConditionallyConvergent = "conditionally-convergent"
    OutsideTheory = "outside-theory"


class SingularDenominatorError(ZeroDivisionError):
    """The marching denominator ``lambda_0 + D*h^alpha`` vanished."""


@dataclass(frozen=True)
class RelaxationProblem:
    """One initial-value problem ``y^(alpha) + D*y = F`` on ``[0, x_end]``.

    Attributes:
        alpha: Fractional order of the derivative, in (0, 1).
        D: Damping coefficient, finite; negative values are admitted (and
            may produce divergent numerical trajectories).
        forcing: Right-hand side ``F``.  It takes a float or a 1-D float
            array of points and returns finite values of the same shape; a
            scalar return is broadcast.  :func:`solve` calls it once on the
            whole grid ``x_2 .. x_n`` and once on the scalar ``h`` (the
            implicit start), so it must accept both.
        y0: Initial value y(0), finite.
        x_end: Right endpoint of the integration interval, finite and > 0.
        exact: Optional closed-form solution used for error reporting;
            must accept numpy arrays.
        dy0: Optional finite y'(0), needed by :attr:`StartMode.TaylorStart`.
        d2y0: Optional finite y''(0), needed by :attr:`StartMode.TaylorStart`.
        label: Optional display name carried through result tables.
    """

    alpha: float
    D: float
    forcing: Callable
    y0: float
    x_end: float = 1.0
    exact: Optional[Callable] = None
    dy0: Optional[float] = None
    d2y0: Optional[float] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fractional order must lie in (0, 1), got {self.alpha!r}")
        for name in ("D", "y0", "x_end", "dy0", "d2y0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.x_end > 0.0:
            raise ValueError(f"x_end must be positive, got {self.x_end!r}")
        if self.exact is not None:
            gap = abs(float(self.exact(0.0)) - self.y0)
            if gap > 1e-12 * max(1.0, abs(self.y0)):
                raise ValueError(
                    f"exact(0) = {float(self.exact(0.0))!r} disagrees with y0 = {self.y0!r}"
                )


@dataclass(frozen=True)
class SolveResult:
    """Grid values produced by :func:`solve`, plus error metadata.

    ``u`` holds the ``n + 1`` values ``u_0 .. u_n`` on the uniform grid of
    spacing ``h``; it is read-only.  ``max_error`` is the maximum absolute
    gap to the problem's exact solution over every grid point (``None``
    when no exact solution was attached).  ``diverged`` records whether any
    value escaped ``1e30`` in magnitude; the trajectory is kept either way.
    """

    scheme: SchemeId
    h: float
    u: np.ndarray
    max_error: Optional[float] = None
    diverged: bool = False

    def __post_init__(self) -> None:
        u = np.array(self.u, dtype=float)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        """Number of steps (``len(u) - 1``)."""
        return self.u.shape[0] - 1


def _exponential_sum(scheme: SchemeId, alpha: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``s`` and weights ``c``: ``sum_i c_i e^(-k s_i)`` is the interior weight at ``lo <= k <= hi``.

    Each family's weight is ``int_0^inf s^(beta-1) g(s) e^(-ks) ds / Gamma(beta)``:
    ``k^(-1-alpha)`` with ``beta = 1 + alpha``, ``g = 1``; the midpoint
    difference with ``beta = alpha``, ``g = -2 sinh s``; L1's second difference
    with ``beta = alpha - 1``, ``g = 4 sinh^2(s/2)``.  The trapezoidal rule
    converges exponentially (Trefethen and Weideman, SIAM Rev. 56, 2014) in
    ``t``, with ``s = exp(t - thin)``, ``thin = 2 exp(t0 - t)`` and
    ``t0 = ln(0.01/hi)``: near ``ln s`` above ``0.01/hi``, and thinning out
    double-exponentially below it, where ``e^(-ks)`` is nearly a polynomial
    (Takahasi and Mori, Publ. RIMS 9, 1974).  Step ``tau = 0.25`` on
    ``[t0 - 3, ln(45/lo))`` gives 69 nodes for the lags [128, 40960], 82 for
    [128, 2^20] and 53 for [16, 80], within 4.93e-15 relative of mpmath for
    alpha 0.01 to 0.99 (4.87e-15 at 0.9).  Step 0.2 measured worse: 86
    nodes for [128, 40960], and 5.35e-15.
    """
    tau, t0 = 0.25, math.log(0.01 / hi)
    t = np.arange(t0 - 3.0, math.log(45.0 / lo), tau)
    thin = 2.0 * np.exp(t0 - t)
    s = np.exp(t - thin)
    if scheme in _L1_FAMILY:
        beta, g = alpha - 1.0, 4.0 * np.sinh(0.5 * s) ** 2
    elif scheme in _MID_FAMILY:
        beta, g = alpha, -2.0 * np.sinh(s)
    else:
        beta, g = 1.0 + alpha, 1.0
    return s, tau * (1.0 + thin) * s**beta * g / math.gamma(beta)


def _leaf_inverse(col: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular Toeplitz matrix with first column ``col``.

    It is lower-triangular Toeplitz too; forward recursion on ``col * inv = e_0``
    gives its first column.
    """
    k = np.arange(col.size)
    inv = np.zeros(col.size)
    for i in k:
        inv[i] = (float(i == 0) - col[i:0:-1] @ inv[:i]) / col[0]
    return np.tril(inv[np.subtract.outer(k, k)])


def _leaf_operator(lam: np.ndarray, den: float, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``near = tinv @ [I | out | slab]``: a leaf's steps are ``near @ [b; state; prev]``.

    ``tinv`` inverts the leaf's lower-triangular Toeplitz matrix, with first
    column ``[den, -lam_1 .. -lam_(_LEAF-1)]``, which carries the lags inside
    the leaf.  ``b[i]`` is step ``lo + i``'s forcing and tail terms;
    ``out[i] @ state``, with ``out[i, j] = e^(-i s_j) c_j``, sums its lags from
    ``_LEAF + i`` on; and ``slab[i] @ prev``, with ``prev = u[lo - _LEAF + 1 : lo]``,
    sums its lags ``i + 1 .. _LEAF - 1 + i`` that reach back before the leaf.
    """
    k = np.arange(_LEAF)
    slab = lam[_LEAF - 1 + np.subtract.outer(k, k[:-1])]
    out = np.exp(-np.outer(k, s)) * c
    tinv = _leaf_inverse(np.concatenate(([den], -lam[1:_LEAF])))
    return np.hstack((tinv, tinv @ np.hstack((out, slab))))


def default_start_mode(scheme: SchemeId) -> StartMode:
    """Starting formula that preserves each scheme's nominal order.

    The third-order stencil needs the O(h^3) Taylor start; for everything
    else the O(h^2) implicit start is already at least as accurate as the
    scheme itself.
    """
    if scheme is SchemeId.Right3mAlpha:
        return StartMode.TaylorStart
    return StartMode.L1Start


def first_step(problem: RelaxationProblem, h: float, mode: StartMode) -> float:
    """Approximate y(h) for the first grid point.

    Args:
        problem: The initial-value problem.
        h: Grid spacing, > 0.
        mode: Starting formula; see :class:`StartMode`.

    Returns:
        The starting value ``u_1``.

    Raises:
        ValueError: If ``h <= 0``, TaylorStart lacks the ``dy0``/``d2y0``
            metadata, or the implicit start's ``F(h)`` is not finite.
        SingularDenominatorError: If the implicit start's denominator
            ``1 + Gamma(2-alpha)*D*h^alpha`` vanishes.
    """
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h!r}")
    if mode is StartMode.TaylorStart:
        if problem.dy0 is None or problem.d2y0 is None:
            raise ValueError(
                "TaylorStart needs dy0 and d2y0 on the problem; "
                "attach them or use L1Start"
            )
        return problem.y0 + problem.dy0 * h + 0.5 * problem.d2y0 * h * h
    g = alpha_constants(problem.alpha).gamma_2ma
    ha = h**problem.alpha
    den = 1.0 + g * problem.D * ha
    if den == 0.0:
        raise SingularDenominatorError(
            f"1 + Gamma(2-alpha)*D*h^alpha vanished for D={problem.D!r}, h={h!r}"
        )
    fh = problem.forcing(h)
    if not np.isfinite(fh):
        raise ValueError(f"forcing must be finite, got F({h!r}) = {fh}")
    return (problem.y0 + g * ha * fh) / den


def _forcing_on_grid(forcing: Callable, h: float, n: int) -> np.ndarray:
    """``forcing`` evaluated once on ``x_m = m*h`` for ``m = 2 .. n``.

    Raises ``ValueError`` unless the result broadcasts to the grid and is finite.
    """
    xs = np.arange(2, n + 1) * h
    values = forcing(xs)
    try:
        values = np.broadcast_to(np.asarray(values, dtype=float), xs.shape)
    except ValueError as exc:
        raise ValueError(
            "forcing must return a scalar or an array shaped like its argument; "
            f"got shape {np.shape(values)} for {xs.size} grid points"
        ) from exc
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"forcing must be finite, got F({float(xs[bad[0]])!r}) = {values[bad[0]]}")
    return values


def _table_end(n: int) -> int:
    """Last step whose ``S_m[1+alpha]`` comes from the running table; leaves read the series past it."""
    return n if n < _NEAR_FIELD else _ASYM_N


def _march(lam: np.ndarray, den: float, f: np.ndarray, tails: list, head: np.ndarray) -> np.ndarray:
    """Steps 3 .. n one at a time, each summing its whole history with one BLAS ``ddot``.

    ``f[m - 3]`` is ``h^alpha * F(x_m)``, ``tails[j][m - 2]`` multiplies
    ``u_j`` at step m, and ``head`` is ``u_0 .. u_2``.  The ``ddot`` reads an
    offset into a newest-first buffer: no slice, copy or numpy call per step.
    """
    from scipy.linalg.blas import ddot  # here: the package's only scipy use bar hyp1f1 on z < 0

    n = f.size + 2
    buf = np.zeros(n + 1)  # newest first: step m's history u[m-1::-1] is buf[n-m+1:]
    u = buf[::-1]
    u[:3] = head
    steps = [range(3, n + 1), f.tolist()]
    steps += [(row[1:] * u[j]).tolist() for j, row in enumerate(tails)]
    steps += [[0.0] * (n - 2)] * (3 - len(tails))
    for m, fm, p0, p1, p2 in zip(*steps):
        history = ddot(lam, buf, m, 1, 1, n - m + 1)
        # Left to right, one term at a time; a missing delta's +0.0 is exact on a dot's sum.
        buf[n - m] = (fm + (history + p0 + p1 + p2)) / den
    return u


def _leaves(lam: np.ndarray, den: float, rhs: np.ndarray, head: np.ndarray, nodes: tuple, norm: float) -> np.ndarray:
    """Steps 3 .. n in leaves of ``_LEAF`` steps, at O(n * (_LEAF + N)) for any ``D``.

    ``rhs[m - 3]`` holds step m's forcing and tail terms, and ``nodes`` is
    :func:`_exponential_sum` for the lags from ``_LEAF`` to n (Jiang, Zhang,
    Zhang and Zhang, Commun. Comput. Phys. 21, 2017).  A leaf is one product
    of :func:`_leaf_operator`'s ``near``, built once per solve, with its
    forcing and tail terms, N exponential states (69 at n = 40960), zero at
    first as the padding before ``u_0`` is, for the older lags, and the
    ``_LEAF - 1`` steps before it.  The sums differ from the march's by
    rounding and by the exponential sum's 4.9e-15 relative error.
    """
    leaf, n = _LEAF, rhs.size + 2
    buf = np.zeros(2 * leaf + n + 1)  # 2 * leaf zeros before u_0: u_j is buf[2 * leaf + j]
    u = buf[2 * leaf :]
    u[:3] = head
    s, weights = nodes
    near = _leaf_operator(lam, den, s, -weights / norm)
    # v = [b; state; prev]: step lo + i's forcing and tail terms, the
    # exponential states and u[lo - leaf + 1 : lo], read by the columns of near.
    v = np.zeros(near.shape[1])
    state, prev = v[leaf : leaf + s.size], v[leaf + s.size :]
    # state = sum_{j <= lo - leaf} e^(-(lo - j) s) u_j, carried one leaf at a time.
    feed = np.exp(-np.outer(s, np.arange(2 * leaf - 1, leaf - 1, -1)))
    decay = np.exp(-leaf * s)
    fed = np.empty(s.size)  # feed's product, written in place like each leaf's
    for lo in range(3, n + 1, leaf):
        # buf[lo + 1 : lo + leaf + 1] is u[lo - 2 * leaf + 1 : lo - leaf + 1].
        state *= decay
        state += np.matmul(feed, buf[lo + 1 : lo + leaf + 1], out=fed)
        prev[:] = buf[lo + leaf + 1 : lo + 2 * leaf]
        hi = min(lo + leaf, n + 1)
        rows = hi - lo
        v[:rows], v[rows:leaf] = rhs[lo - 3 : hi - 3], 0.0
        np.matmul(near[:rows], v, out=u[lo:hi])
    return u


def solve(
    problem: RelaxationProblem, scheme: SchemeId, n: int, start: Optional[StartMode] = None
) -> SolveResult:
    """March the relaxation equation across ``n`` uniform steps.

    The forcing, the tail deltas of every step count, ``u_1`` and ``u_2``
    are computed once, up front.  Then :func:`_march` runs steps 3 .. n, or
    :func:`_leaves` does from ``_NEAR_FIELD`` (4096) steps on.

    Args:
        problem: The initial-value problem.
        scheme: Weight stencil standing in for the fractional derivative.
        n: Number of steps; the grid spacing is ``x_end / n``.  Must be >= 2.
        start: Starting formula for ``u_1``; defaults to
            :func:`default_start_mode` for the scheme.

    Returns:
        A :class:`SolveResult` with the full trajectory.  Values exceeding
        1e30 in magnitude set the ``diverged`` flag but do not abort the
        march, so blow-up profiles remain inspectable.

    Raises:
        ValueError: If ``n < 2``, or the forcing's result on the grid does
            not broadcast to it or is not finite.
        SingularDenominatorError: If ``lambda_0 + D*h^alpha = 0``.
    """
    if n < 2:
        raise ValueError(f"need at least two steps, got n={n!r}")

    alpha, h = problem.alpha, problem.x_end / n
    norm = scheme_norm(scheme, alpha)
    ha = h**alpha
    d_ha = problem.D * ha
    mode = start if start is not None else default_start_mode(scheme)

    w = _interior_weights(scheme, alpha, max(n, 2 * _LEAF), alpha_constants(alpha))  # slabs read past n
    head = np.array([problem.y0, first_step(problem, h, mode), 0.0])  # u_0 .. u_2
    forcing = _forcing_on_grid(problem.forcing, h, n)
    # tails[j][m - 2] multiplies u_j at step m: the delta at index m - j.  Built
    # after the forcing and freed once the leaves have them, so that none meets
    # the forcing's temporaries, which set a long solve's peak memory.
    tails = [-d / norm for d in _tail_deltas(scheme, alpha, np.arange(2, n + 1), w, _table_end(n))]
    gen_lam = np.divide(w, -norm, out=w)  # lambda_k in w's memory
    gen_lam[0] = -gen_lam[0]
    # Step 2 reads its tail terms as stencil weights; a third delta lands
    # on lambda_0.  Every later step shares one denominator.
    t = [row[0] for row in tails] + [0.0] * (3 - len(tails))
    lam0_2, lam0 = gen_lam[0] - t[2], gen_lam[0]
    for lam0_m in (lam0_2, lam0)[: n - 1]:
        if lam0_m + d_ha == 0.0:
            raise SingularDenominatorError(
                f"lambda_0 + D*h^alpha vanished (lambda_0={lam0_m!r}, D*h^alpha={d_ha!r})"
            )
    den = lam0 + d_ha
    # A divergent run overflows to inf and nan; `diverged` reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        f = ha * forcing[1:]
        history = (gen_lam[1] + t[1]) * head[1] + (gen_lam[2] + t[0]) * head[0]
        head[2] = (ha * forcing[0] + history) / (lam0_2 + d_ha)
        if n < _NEAR_FIELD:
            u = _march(gen_lam, den, f, tails, head)
        else:
            for j, row in enumerate(tails):
                f += row[1:] * head[j]
            del tails
            u = _leaves(gen_lam, den, f, head, _exponential_sum(scheme, alpha, _LEAF, n), norm)
        diverged = not bool(np.all(np.abs(u) <= _DIVERGENCE_LIMIT))

    max_error: Optional[float] = None
    if problem.exact is not None:
        with np.errstate(invalid="ignore", over="ignore"):
            gaps = np.abs(u - np.asarray(problem.exact(h * np.arange(n + 1)), dtype=float))
        max_error = float(np.max(gaps))
        if math.isnan(max_error):
            max_error = math.inf
    return SolveResult(scheme=scheme, h=h, u=u, max_error=max_error, diverged=diverged)


def stability_check(
    problem: RelaxationProblem, scheme: SchemeId, n: int
) -> StabilityVerdict:
    """Classify a planned solve against the convergence theory.

    Positive damping is always covered.  For negative damping the theory
    admits ``-L/x_end^alpha < D < 0`` where ``L`` is the largest constant
    with ``L/m^alpha < lambda_m`` for every step count; it is estimated
    here as ``min over 2 <= m <= n of m^alpha * lambda_m``.  Everything
    else — including ``D = 0``, which the error bounds never treat — is
    reported as outside the theory.  The verdict is advisory only; no
    solve is ever blocked.  ``n < 2`` raises ``ValueError``, as in :func:`solve`.

    The minimum over ``m <= min(n, 64)`` is taken first.  Each of its
    values is the full scan's bit for bit, so it is never below the full
    minimum: when it already fails the bound the verdict is settled as
    ``OutsideTheory``.  Otherwise the scan covers every m up to n, and the
    minimum is the one the full scan gives.
    """
    if n < 2:
        raise ValueError(f"need at least two steps, got n={n!r}")
    if problem.D > 0.0:
        return StabilityVerdict.GuaranteedConvergent
    if problem.D == 0.0:
        return StabilityVerdict.OutsideTheory

    alpha = problem.alpha
    norm = scheme_norm(scheme, alpha)
    for m_max in sorted({min(n, 64), n}):
        ms = np.arange(2, m_max + 1)
        # lambda_m of the m-step stencil: its interior weight at m plus d_0(m).
        interior = _interior_weights(scheme, alpha, m_max, alpha_constants(alpha))
        w_last = interior[2:] + _tail_deltas(scheme, alpha, ms, interior)[0]
        lower = float(np.min(ms**alpha * (-w_last / norm)))
        if not -lower / problem.x_end**alpha < problem.D:
            return StabilityVerdict.OutsideTheory
    return StabilityVerdict.ConditionallyConvergent


def equation_catalog(alpha: float, D: float = -1.0) -> list[RelaxationProblem]:
    """Benchmark problems with closed-form solutions and forcings.

    Returns four problems at the given fractional order, all on [0, 1]
    with y(0) = 1:

    * ``I``   — y = 1 + x + x^2 + x^3 + x^4 with unit damping;
    * ``II``  — y = e^x with unit damping;
    * ``III`` — y = cos 2*pi*x with unit damping;
    * ``exp`` — y = e^x again but with caller-chosen damping ``D``, the
      family used to probe negative-damping behaviour.

    Every forcing is one rule, ``F(x) = caputo(x) + D * y(x)``: the exact
    Caputo derivative of the solution ``y`` plus ``D`` times it, so ``y``
    is the exact solution by construction.  The forcings take a point or
    an array of points, and an array gives the scalar values bit for bit,
    and so do the solutions, whatever the memory layout of the array:
    each term is an elementwise function of contiguous points, and the
    rule only adds and multiplies them.  Powers, ``exp`` and ``cos`` are
    numpy's.  Problem I adds its four power terms in order with plain
    additions: they are never negative, so no compensation is needed
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, §4.2).
    """
    alpha_constants(alpha)  # validates the order once, loudly

    @_elementwise
    def poly(x):
        return 1.0 + x * (1.0 + x * (1.0 + x * (1.0 + x)))

    @_elementwise
    def exp(x):
        return np.exp(x)

    @_elementwise
    def cos(x):
        return np.cos(2.0 * math.pi * x)

    # The Caputo derivatives name the module's functions at call time, so a
    # rebinding of them after this call still takes effect.
    rows = [
        ("I", 1.0, poly, lambda x: sum(exact_caputo_power(k, alpha, x) for k in range(1, 5)), 1.0, 2.0),
        ("II", 1.0, exp, lambda x: exact_caputo_exp(alpha, x), 1.0, 1.0),
        ("III", 1.0, cos, lambda x: exact_caputo_cos2pix(alpha, x), 0.0, -4.0 * math.pi**2),
        ("exp", D, exp, lambda x: exact_caputo_exp(alpha, x), 1.0, 1.0),
    ]

    # A function, so that each forcing closes over its own row.
    def problem(label, damping, y, caputo, dy0, d2y0):
        return RelaxationProblem(
            alpha=alpha, D=damping, forcing=lambda x: caputo(x) + damping * y(x),
            y0=1.0, exact=y, dy0=dy0, d2y0=d2y0, label=label,
        )

    return [problem(*row) for row in rows]


#: Shorthand labels for scheme + start-mode pairings, as used in the bundled
#: reference tables.  Two historical spellings exist for a couple of entries;
#: both are accepted everywhere labels are parsed.
NS_LABELS: dict[str, tuple[SchemeId, StartMode]] = {
    "NS[1]": (SchemeId.L1, StartMode.L1Start),
    "NS[9]": (SchemeId.Mid2mAlpha, StartMode.L1Start),
    "NS[10]": (SchemeId.Mid2, StartMode.L1Start),
    "NS[12]": (SchemeId.Right2mAlpha, StartMode.L1Start),
    "NS[13]": (SchemeId.Right3mAlpha, StartMode.TaylorStart),
    "NS[20]": (SchemeId.MidLow, StartMode.L1Start),
    "NS[34]": (SchemeId.RightLow, StartMode.L1Start),
    "NS[40]": (SchemeId.Right2mAlpha, StartMode.L1Start),
    "NS[45]": (SchemeId.Right3mAlpha, StartMode.TaylorStart),
}
