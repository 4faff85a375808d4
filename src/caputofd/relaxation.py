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
weight construction alone.  The solver below instead freezes the
head-corrected interior weights once and patches only the O(1) tail
entries per step, with compensated accumulators for the harmonic partial
sums the tails need (on the leaf path below, the Hurwitz zeta function).

The history sum is split by lag.  Lags below ``_NEAR_FIELD`` are summed
directly; older history reaches each step through the blocked online
convolution of Hairer, Lubich & Schlichte ("Fast numerical solution of
nonlinear Volterra convolution equations", SIAM J. Sci. Stat. Comput. 6,
1985), which adds a finished block's far-field contribution to every later
step of its sibling block with one FFT product.  The first steps are
marched one at a time with a direct dot product each.  From the first
multiple of ``_LEAF`` at or past both ``_NEAR_FIELD`` and the series
crossover on, the steps are solved ``_LEAF`` at a time: one product with a
precomputed Toeplitz slab of the weights adds the near lags from before the
leaf, and a forward substitution on the constant lower-triangular Toeplitz
matrix of the leaf carries the lags inside it.  The recurrence stays
causal, so every damping, divergent runs included, is served in
O(n * _NEAR_FIELD + n log^2 n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy import special
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import solve_triangular, toeplitz

from .caputo import exact_caputo_cos2pix, exact_caputo_exp, exact_caputo_power
from .schemes import (
    SchemeId,
    _ASYM_N,
    _RIGHT_FAMILY,
    _generic_raw_weights,
    _true_tail_weights,
    build_weights,
    normalized_lambda,
    scheme_norm,
)
from .specfun import AlphaConstants, _elementwise, _fsum_points, _libm, alpha_constants

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

#: Largest step count handled by full stencil rebuilds.  Above this the head
#: and tail regions of every scheme are guaranteed disjoint and the
#: incremental tail-patching path takes over.
_SMALL_M = 6

#: Lags below this width are summed directly; older lags reach a step
#: through the FFT far field.  A solve with fewer steps has no far lag, and
#: one with fewer steps than the first leaf is the plain march, bit for bit.
#: Must exceed ``_SMALL_M``, whose full rebuilds carry their whole history.
_NEAR_FIELD = 4096

#: Steps from the first multiple of this size at or past both
#: ``_NEAR_FIELD`` and ``_ASYM_N`` on are solved this many at a time.
_LEAF = 64

#: Step counts per vectorized tail evaluation, which bounds its temporaries.
_TAIL_BLOCK = 4096


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
        D: Damping coefficient; negative values are admitted (and may
            produce divergent numerical trajectories).
        forcing: Right-hand side ``F``.  It takes a float or a 1-D float
            array of points and returns a value of the same shape; a
            scalar return is broadcast over the points.  :func:`solve`
            calls it once on the whole grid ``x_2 .. x_n`` and once on the
            scalar ``h`` (the implicit start), so it must accept both.
        y0: Initial value y(0).
        x_end: Right endpoint of the integration interval, > 0.
        exact: Optional closed-form solution used for error reporting;
            must accept numpy arrays.
        dy0: Optional y'(0), needed by :attr:`StartMode.TaylorStart`.
        d2y0: Optional y''(0), needed by :attr:`StartMode.TaylorStart`.
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


class _NeumaierSum:
    """Compensated scalar accumulator.

    The tail weights consume partial sums of k^(-s) with thousands of terms;
    plain accumulation drifts by ~1e-12 absolute at n = 2560, and the
    near-cancellation inside the tail deficits amplifies that to the point
    of threatening the 1e-10 closed-form agreement targets.
    """

    __slots__ = ("_total", "_comp")

    def __init__(self) -> None:
        self._total = 0.0
        self._comp = 0.0

    def add(self, x: float) -> None:
        t = self._total + x
        if abs(self._total) >= abs(x):
            self._comp += (self._total - t) + x
        else:
            self._comp += (x - t) + self._total
        self._total = t

    @property
    def value(self) -> float:
        return self._total + self._comp


class _TailSums:
    """Shifted partial sums ``S_m[s] - zeta(s)`` read by the tail formulas.

    :meth:`advance` adds the ``k = m - 1`` terms and returns the values for
    ``s = alpha, 1 + alpha, alpha - 1``.  Past the series crossover
    ``_ASYM_N`` the ``K``/``W`` coefficients read no sum and only the
    right-sum base ``-S_m[1+alpha]`` still does, so the sums nobody reads
    stop accumulating and come back as ``None``.
    """

    __slots__ = ("_alpha", "_c", "_right", "_a", "_a1", "_am1")

    def __init__(self, scheme: SchemeId, alpha: float, c: AlphaConstants) -> None:
        self._alpha = alpha
        self._c = c
        self._right = scheme in _RIGHT_FAMILY
        self._a = _NeumaierSum()
        self._a1 = _NeumaierSum()
        self._am1 = _NeumaierSum()

    def advance(
        self, m: int
    ) -> tuple[Optional[float], Optional[float], Optional[float]]:
        k = float(m - 1)
        c = self._c
        if m <= _ASYM_N:
            self._a.add(k**-self._alpha)
            self._a1.add(k ** (-1.0 - self._alpha))
            self._am1.add(k ** (1.0 - self._alpha))
            return (
                self._a.value - c.zeta_a,
                self._a1.value - c.zeta_ap1,
                self._am1.value - c.zeta_am1,
            )
        if not self._right:
            return None, None, None
        self._a1.add(k ** (-1.0 - self._alpha))
        return None, self._a1.value - c.zeta_ap1, None


def _series_tail_weights(scheme: SchemeId, alpha: float, ms: np.ndarray) -> tuple:
    """Tail weights of the stencils for every step count in ``ms``, as arrays.

    Every ``m`` must lie past ``_ASYM_N``.  ``S_m[1+alpha] - zeta(1+alpha)``
    is the Hurwitz ``-zeta(1+alpha, m)`` here, not a running sum.
    """
    s_a1 = -special.zeta(1.0 + alpha, ms) if scheme in _RIGHT_FAMILY else None
    return _true_tail_weights(scheme, alpha, ms, None, s_a1, None)


def _far_field_splits(n: int, width: int, align: int) -> dict[int, tuple[int, int]]:
    """Dyadic splits of the grid ``[0, n]`` for the far-field convolution.

    Maps the split point ``mid`` of every node ``[lo, hi)`` longer than
    ``width`` to ``(lo, hi)``; ``mid`` is the multiple of ``align`` (at most
    ``width``) nearest the node's middle, so no split falls inside a leaf.
    Leaves are at most ``width`` long, so every pair of grid points at least
    ``width`` apart is split by exactly one node, and no two nodes share a
    split point.
    """
    splits: dict[int, tuple[int, int]] = {}
    stack = [(0, n + 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo > width:
            mid = lo + (hi - lo + align) // (2 * align) * align
            splits[mid] = (lo, hi)
            stack += [(lo, mid), (mid, hi)]
    return splits


def _add_far_field(
    far: np.ndarray, u: np.ndarray, kernel: np.ndarray, lo: int, mid: int, hi: int, width: int
) -> None:
    """Add ``sum_{j in [lo, mid)} kernel[m - j] * u[j]`` to ``far[m]`` for ``m in [mid, hi)``.

    ``kernel`` is zero below lag ``width``, so only steps ``m >= lo + width``
    receive anything.  The linear product of ``u[lo:mid]`` and
    ``kernel[:hi - lo]`` ends at index ``hi - lo + (mid - lo) - 2``, so a
    cyclic one of length at least ``hi - lo`` wraps only onto indices below
    ``mid - lo`` and leaves ``[mid, hi)`` exact.
    """
    size = hi - lo
    nfft = next_fast_len(size, real=True)
    spec = rfft(u[lo:mid], nfft) * rfft(kernel[:size], nfft)
    start = max(mid, lo + width)
    far[start:hi] += irfft(spec, nfft)[start - lo : size]


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
        ValueError: If ``h <= 0``, or TaylorStart is requested on a problem
            without ``dy0``/``d2y0`` metadata.
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
    return (problem.y0 + g * ha * problem.forcing(h)) / den


def _forcing_on_grid(forcing: Callable, h: float, n: int) -> np.ndarray:
    """``forcing`` evaluated once on ``x_m = m*h`` for ``m = 2 .. n``.

    Raises:
        ValueError: if its result does not broadcast to the grid.
    """
    xs = np.arange(2, n + 1) * h
    values = forcing(xs)
    try:
        return np.broadcast_to(np.asarray(values, dtype=float), xs.shape)
    except ValueError as exc:
        raise ValueError(
            "forcing must return a scalar or an array shaped like its argument; "
            f"got shape {np.shape(values)} for {xs.size} grid points"
        ) from exc


def solve(
    problem: RelaxationProblem,
    scheme: SchemeId,
    n: int,
    start: Optional[StartMode] = None,
) -> SolveResult:
    """March the relaxation equation across ``n`` uniform steps.

    Each step's history sum ``sum_{k=1..m} lambda_k * u_{m-k}`` is split at
    lag ``_NEAR_FIELD`` (4096).  The far lags come from a dyadic
    divide-and-conquer over the grid: once the left half ``[lo, mid)`` of a
    node is solved, one ``rfft``/``irfft`` product adds its far-lag
    contribution to every step of ``[mid, hi)``.  Steps below the first
    leaf (step 4096) are marched one at a time, the near lags a direct dot
    product per step.  From there on the steps go in leaves of ``_LEAF``
    (64): the forcing and the tail patches of all of them are computed at
    once, each leaf adds the near lags from before it with one product
    against a ``64 x 4095`` Toeplitz slab of the weights, and solves for
    its own values by forward substitution on the leaf's lower-triangular
    Toeplitz matrix.  The march stays causal for any ``D``, at
    O(n * _NEAR_FIELD) direct plus O(n log^2 n) FFT work.  A solve with
    fewer steps than the first leaf is the plain march bit for bit; past it
    the sums differ from the plain march's only by rounding.  The forcing
    is evaluated once, on the whole grid, before the march.

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
            not broadcast to it.
        SingularDenominatorError: If ``lambda_0 + D*h^alpha = 0``.
    """
    if n < 2:
        raise ValueError(f"need at least two steps, got n={n!r}")
    alpha = problem.alpha
    c = alpha_constants(alpha)
    norm = scheme_norm(scheme, alpha)
    h = problem.x_end / n
    ha = h**alpha
    d_ha = problem.D * ha
    mode = start if start is not None else default_start_mode(scheme)

    u = np.empty(n + 1)
    u[0] = problem.y0
    u[1] = first_step(problem, h, mode)
    diverged = not math.isfinite(u[1]) or abs(u[1]) > _DIVERGENCE_LIMIT

    # far[m] collects sum_{k >= width} gen_lam[k] * u[m-k], block by block,
    # through far_kernel: gen_lam with its first `width` lags zeroed.  A
    # leaf no longer than `width` keeps every lag inside it in the near field.
    width = _NEAR_FIELD
    leaf = min(_LEAF, width)
    first_leaf = -(-max(width, _ASYM_N + 1) // leaf) * leaf
    splits = _far_field_splits(n, width, leaf)
    far = np.zeros(n + 1)
    far_kernel = np.zeros(n + 1)

    gen_lam: Optional[np.ndarray] = None
    if n > _SMALL_M:
        gen_lam = -_generic_raw_weights(scheme, alpha, n, c) / norm
        gen_lam[0] = -gen_lam[0]
        far_kernel[width:] = gen_lam[width:]

    sums = _TailSums(scheme, alpha, c)
    forcing = _forcing_on_grid(problem.forcing, h, n)
    march_forcing = forcing[: first_leaf - 2].tolist()
    # A divergent run overflows to inf and nan; `diverged` reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(2, min(n, first_leaf - 1) + 1):
            split = splits.get(m)
            if split is not None:
                _add_far_field(far, u, far_kernel, split[0], m, split[1], width)
            s_a, s_a1, s_am1 = sums.advance(m)
            if m <= _SMALL_M:
                lam = normalized_lambda(build_weights(scheme, alpha, m))
                lam0 = lam[0]
                history = float(np.dot(lam[1:], u[m - 1 :: -1]))
            else:
                assert gen_lam is not None
                lam0 = gen_lam[0]
                if m < width:
                    history = float(np.dot(gen_lam[1 : m + 1], u[m - 1 :: -1]))
                else:
                    near = float(np.dot(gen_lam[1:width], u[m - 1 : m - width : -1]))
                    history = near + far[m]
                for idx, w_true in _true_tail_weights(scheme, alpha, m, s_a, s_a1, s_am1):
                    history += (-(w_true / norm) - gen_lam[idx]) * u[m - idx]
            den = lam0 + d_ha
            if den == 0.0:
                raise SingularDenominatorError(
                    f"lambda_0 + D*h^alpha vanished (lambda_0={lam0!r}, D*h^alpha={d_ha!r})"
                )
            value = (ha * march_forcing[m - 2] + history) / den
            u[m] = value
            if not diverged and (not math.isfinite(value) or abs(value) > _DIVERGENCE_LIMIT):
                diverged = True

        if n >= first_leaf:
            assert gen_lam is not None
            # Steps past the march: forcing and tail patches (which touch
            # only u_0, u_1, u_2) for all of them, _TAIL_BLOCK at a time ...
            rhs = ha * forcing[first_leaf - 2 :]
            for lo in range(first_leaf, n + 1, _TAIL_BLOCK):
                ms = np.arange(lo, min(lo + _TAIL_BLOCK, n + 1))
                part = rhs[lo - first_leaf : lo - first_leaf + ms.size]
                for idx, w_true in _series_tail_weights(scheme, alpha, ms):
                    part += (-(w_true / norm) - gen_lam[idx]) * u[ms - idx]
            # ... then one leaf at a time: slab[i] @ u[lo - width + 1 : lo]
            # sums the near lags reaching step lo + i from before the leaf,
            # and tri (lambda_0 + D*h^alpha on the diagonal, -gen_lam[k] on
            # the k-th subdiagonal) carries the lags inside it.
            slab = np.zeros((leaf, width - 1))
            for i in range(leaf):
                slab[i, i:] = gen_lam[width - 1 : i : -1]
            tri = toeplitz(np.concatenate(([gen_lam[0] + d_ha], -gen_lam[1:leaf])), np.zeros(leaf))
            for lo in range(first_leaf, n + 1, leaf):
                split = splits.get(lo)
                if split is not None:
                    _add_far_field(far, u, far_kernel, split[0], lo, split[1], width)
                hi = min(lo + leaf, n + 1)
                rows = hi - lo
                b = rhs[lo - first_leaf : hi - first_leaf] + far[lo:hi]
                b += slab[:rows] @ u[lo - width + 1 : lo]
                u[lo:hi] = solve_triangular(
                    tri[:rows, :rows], b, lower=True, check_finite=False
                )
            diverged = diverged or not np.all(np.abs(u[first_leaf:]) <= _DIVERGENCE_LIMIT)

    max_error: Optional[float] = None
    if problem.exact is not None:
        xs = h * np.arange(n + 1)
        with np.errstate(invalid="ignore", over="ignore"):
            gaps = np.abs(u - np.asarray(problem.exact(xs), dtype=float))
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
    solve is ever blocked.
    """
    if problem.D > 0.0:
        return StabilityVerdict.GuaranteedConvergent
    if problem.D == 0.0:
        return StabilityVerdict.OutsideTheory

    alpha = problem.alpha
    c = alpha_constants(alpha)
    norm = scheme_norm(scheme, alpha)
    sums = _TailSums(scheme, alpha, c)
    lower = math.inf
    for m in range(2, min(max(n, 2), _ASYM_N) + 1):
        s_a, s_a1, s_am1 = sums.advance(m)
        if m <= _SMALL_M:
            lam_last = float(normalized_lambda(build_weights(scheme, alpha, m))[m])
        else:
            tails = _true_tail_weights(scheme, alpha, m, s_a, s_a1, s_am1)
            lam_last = next(-w / norm for idx, w in tails if idx == m)
        lower = min(lower, m**alpha * lam_last)
    for lo in range(_ASYM_N + 1, n + 1, _TAIL_BLOCK):
        # The last tail weight always sits at index m.
        ms = np.arange(lo, min(lo + _TAIL_BLOCK, n + 1))
        w_last = _series_tail_weights(scheme, alpha, ms)[-1][1]
        lower = min(lower, float(np.min(ms**alpha * (-w_last / norm))))
    if -lower / problem.x_end**alpha < problem.D:
        return StabilityVerdict.ConditionallyConvergent
    return StabilityVerdict.OutsideTheory


def equation_catalog(alpha: float, D: float = -1.0) -> list[RelaxationProblem]:
    """Benchmark problems with closed-form solutions and forcings.

    Returns four problems at the given fractional order, all on [0, 1]
    with y(0) = 1:

    * ``I``   — y = 1 + x + x^2 + x^3 + x^4 with unit damping;
    * ``II``  — y = e^x with unit damping;
    * ``III`` — y = cos 2*pi*x with unit damping;
    * ``exp`` — y = e^x again but with caller-chosen damping ``D``, the
      family used to probe negative-damping behaviour.

    Each forcing is assembled as exact-Caputo-derivative + D*solution, so
    the listed function is the exact solution by construction.  The
    forcings take a point or an array of points, and an array gives the
    scalar values bit for bit.
    """
    alpha_constants(alpha)  # validates the order once, loudly

    def poly(x):
        return 1.0 + x * (1.0 + x * (1.0 + x * (1.0 + x)))

    @_elementwise(blocked=True)
    def poly_forcing(x):
        powers = np.vstack([exact_caputo_power(k, alpha, x) for k in range(1, 5)])
        return _fsum_points(powers) + poly(x)

    @_elementwise
    def exp_unit_forcing(x):
        return exact_caputo_exp(alpha, x) + _libm(math.exp, x)

    @_elementwise
    def cos_forcing(x):
        return exact_caputo_cos2pix(alpha, x) + _libm(math.cos, 2.0 * math.pi * x)

    @_elementwise
    def exp_damped_forcing(x):
        return exact_caputo_exp(alpha, x) + D * _libm(math.exp, x)

    return [
        RelaxationProblem(
            alpha=alpha,
            D=1.0,
            forcing=poly_forcing,
            y0=1.0,
            exact=poly,
            dy0=1.0,
            d2y0=2.0,
            label="I",
        ),
        RelaxationProblem(
            alpha=alpha,
            D=1.0,
            forcing=exp_unit_forcing,
            y0=1.0,
            exact=np.exp,
            dy0=1.0,
            d2y0=1.0,
            label="II",
        ),
        RelaxationProblem(
            alpha=alpha,
            D=1.0,
            forcing=cos_forcing,
            y0=1.0,
            exact=lambda x: np.cos(2.0 * math.pi * x),
            dy0=0.0,
            d2y0=-4.0 * math.pi**2,
            label="III",
        ),
        RelaxationProblem(
            alpha=alpha,
            D=D,
            forcing=exp_damped_forcing,
            y0=1.0,
            exact=np.exp,
            dy0=1.0,
            d2y0=1.0,
            label="exp",
        ),
    ]


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
