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
in ``u_0``, ``u_1`` and ``u_2`` to its history sum.  How a tail
coefficient is computed is left to :mod:`caputofd.schemes`; the solver
only names its last marched step, up to which the harmonic deficit
``S_m[1+alpha]`` comes from the running compensated table (the leaves, all
past ``_ASYM_N``, read the Euler-Maclaurin expansion).

Steps before the first leaf (the first multiple of ``_LEAF`` at or past
``_NEAR_FIELD`` and the series crossover) are marched one at a time, each
summing every lag with one BLAS ``ddot`` at offsets into a newest-first buffer:
no slice views, no copy and no numpy dispatch per step.  Each leaf of ``_LEAF``
steps sums the lags below ``min(_NEAR_FIELD, _LEAF_NEAR)`` directly: a Toeplitz
slab of the weights adds those from before it, and one LAPACK ``trtrs`` call on
its lower-triangular Toeplitz matrix carries those inside it.  Older lags come
from the blocked online convolution of Hairer, Lubich & Schlichte ("Fast
numerical solution of nonlinear Volterra convolution equations", SIAM J. Sci.
Stat. Comput. 6, 1985): one FFT product adds a finished block's far field to
every later step of its sibling block, with the weights transformed once per
block length.  The recurrence stays causal, so every damping, divergent runs
included, costs O(_NEAR_FIELD^2 + n * _LEAF_NEAR + n log^2 n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import toeplitz
from scipy.linalg.blas import ddot
from scipy.linalg.lapack import dtrtrs

from .caputo import exact_caputo_cos2pix, exact_caputo_exp, exact_caputo_power
from .schemes import (
    SchemeId,
    _ASYM_N,
    _interior_weights,
    _tail_deltas,
    scheme_norm,
)
from .specfun import _elementwise, _libm, alpha_constants

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

#: The march, which sums every lag directly, runs at least this far, so a
#: shorter solve is the plain recipe bit for bit.  The leaves after it sum
#: lags below ``min(_NEAR_FIELD, _LEAF_NEAR)`` directly, older ones by FFT.
_NEAR_FIELD = 4096

#: Only the march's bit-identity needs the whole ``_NEAR_FIELD`` summed
#: directly.  A leaf step pays O(width) for its direct lags and about
#: O(log^2 n) for the far ones; 512 made ``solve`` at n = 40960 fastest
#: (1024, 256, 128 and 64 were slower).
_LEAF_NEAR = 512

#: Steps from the first multiple of this size at or past both
#: ``_NEAR_FIELD`` and ``_ASYM_N`` on are solved this many at a time.
_LEAF = 64


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
    far: np.ndarray, u: np.ndarray, kernel: np.ndarray, spectra: dict[int, np.ndarray],
    lo: int, mid: int, hi: int, width: int,
) -> None:
    """Add ``sum_{j in [lo, mid)} kernel[m - j] * u[j]`` to ``far[m]`` for ``m in [mid, hi)``.

    ``kernel`` is zero below lag ``width``, so only steps ``m >= lo + width``
    receive anything.  The linear product of ``u[lo:mid]`` and ``kernel[:size]``,
    ``size = hi - lo``, ends at index ``size + mid - lo - 2``, so a cyclic one
    of length at least ``size`` wraps only onto indices below ``mid - lo`` and
    leaves ``[mid, hi)`` exact.  ``spectra`` keeps the kernel's transform per size.
    """
    size = hi - lo
    nfft = next_fast_len(size, real=True)
    if size not in spectra:
        spectra[size] = rfft(kernel[:size], nfft)
    spec = rfft(u[lo:mid], nfft) * spectra[size]
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

    Steps below the first leaf (step 4096) are marched one at a time, each
    summing its whole history ``sum_{k=1..m} lambda_k * u_{m-k}`` with one
    BLAS ``ddot`` at offsets into the newest-first history, so no step builds
    a slice view, copies it or goes through numpy's dispatch; ``u`` is made
    contiguous once before the leaves.  Later steps go in leaves of ``_LEAF``
    (64) and split it at lag ``_LEAF_NEAR`` (512).  The far lags come from a
    dyadic divide-and-conquer over the grid, minus its nodes ending at or
    before the first leaf: once the left half ``[lo, mid)`` of a node is
    solved, one ``rfft``/``irfft`` product adds its far-lag contribution to
    every step of ``[mid, hi)``; the weights are transformed once per node
    length.  The tail deltas of every step count are computed once, up front;
    step m adds ``t_j[m] * u_j`` for each delta, and at step 2 a third delta
    lands on ``lambda_0``.  The forcing and tail terms of all leaf steps are
    folded into one right-hand side; each leaf adds the near lags from before
    it with one product against a ``64 x 511`` Toeplitz slab of the weights,
    and solves for its own values with one LAPACK ``dtrtrs`` call on the
    leaf's lower-triangular Toeplitz matrix.  The march stays causal for any
    ``D``, at O(4096^2 + n * 512) direct plus O(n log^2 n) FFT work.  Past the
    first leaf the sums differ from the plain march's only by rounding.  The
    forcing is evaluated once, on the whole grid, before the march.

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

    # far[m] collects sum_{k >= width} gen_lam[k] * u[m-k], block by block,
    # through far_kernel: gen_lam with its first `width` lags zeroed.  A
    # leaf no longer than `width` keeps every lag inside it in the near field.
    width = min(_NEAR_FIELD, _LEAF_NEAR)
    leaf = min(_LEAF, width)
    first_leaf = -(-max(_NEAR_FIELD, _ASYM_N + 1) // leaf) * leaf
    march_end = min(n, first_leaf - 1)
    far = np.zeros(n + 1)
    far_kernel = np.zeros(n + 1)

    gen_lam = -_interior_weights(scheme, alpha, n, c) / norm
    gen_lam[0] = -gen_lam[0]
    far_kernel[width:] = gen_lam[width:]

    rev = np.empty(n + 1)
    u = rev[::-1]  # newest first: step m's history u[m-1::-1] is rev[n-m+1:]
    u[0] = problem.y0
    u[1] = first_step(problem, h, mode)
    forcing = _forcing_on_grid(problem.forcing, h, n)
    # Only the leaves read far[]; nodes ending at or before the first leaf
    # are dropped.  Built after the forcing, like the tails, for peak memory.
    splits = _far_field_splits(n, width, leaf).items()
    nodes = sorted(((mid, lo, hi) for mid, (lo, hi) in splits if hi > first_leaf), reverse=True)
    # tails[j][m - 2] multiplies u_j at step m: the delta at index m - j.
    # They are built after the forcing and freed once the leaves have them,
    # so that no O(n) array of theirs meets the forcing's temporaries or the
    # leaves' FFTs, which set the peak memory of a long solve.  The marched
    # steps read S_m[1+alpha] from the running table, the leaves from a series.
    tails = [-d / norm for d in _tail_deltas(scheme, alpha, np.arange(2, n + 1), march_end)]
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
        history = (gen_lam[1] + t[1]) * u[1] + (gen_lam[2] + t[0]) * u[0]
        u[2] = (ha * forcing[0] + history) / (lam0_2 + d_ha)
        steps = [range(3, march_end + 1), (ha * forcing[1 : march_end - 1]).tolist()]
        steps += [(row[1 : march_end - 1] * u[j]).tolist() for j, row in enumerate(tails)]
        steps += [[0.0] * (march_end - 2)] * (3 - len(tails))
        for m, f, p0, p1, p2 in zip(*steps):
            history = ddot(gen_lam, rev, m, 1, 1, n - m + 1)
            # Left to right, one term at a time; a missing delta's +0.0 is exact on a dot's sum.
            rev[n - m] = (f + (history + p0 + p1 + p2)) / den
        u = u.copy()  # contiguous, so the leaves' products round as before

        if n >= first_leaf:
            # Steps past the march: forcing and tail terms for all of them ...
            rhs = ha * forcing[first_leaf - 2 :]
            for j, row in enumerate(tails):
                rhs += row[first_leaf - 2 :] * u[j]
            del tails
            # ... then one leaf at a time: slab[i] @ u[lo - width + 1 : lo]
            # sums the near lags reaching step lo + i from before the leaf,
            # and tri (lambda_0 + D*h^alpha on the diagonal, -gen_lam[k] on
            # the k-th subdiagonal) carries the lags inside it.
            slab = np.zeros((leaf, width - 1))
            for i in range(leaf):
                slab[i, i:] = gen_lam[width - 1 : i : -1]
            tri = toeplitz(np.concatenate(([gen_lam[0] + d_ha], -gen_lam[1:leaf])), np.zeros(leaf))
            # A node adds its far lags before the first leaf at or past its split
            # point, in split order (nodes[-1] first), with one transform per length.
            spectra: dict[int, np.ndarray] = {}
            for lo in range(first_leaf, n + 1, leaf):
                while nodes and nodes[-1][0] <= lo:
                    mid, left, right = nodes.pop()
                    _add_far_field(far, u, far_kernel, spectra, left, mid, right, width)
                hi = min(lo + leaf, n + 1)
                rows = hi - lo
                b = rhs[lo - first_leaf : hi - first_leaf] + far[lo:hi]
                b += slab[:rows] @ u[lo - width + 1 : lo]
                # tri.T is upper triangular in Fortran order; trans=1 solves tri @ x = b.
                u[lo:hi], info = dtrtrs(tri[:rows, :rows].T, b, lower=0, trans=1, overwrite_b=1)
                if info:
                    raise np.linalg.LinAlgError(f"dtrtrs info {info} on the leaf at step {lo}")
        diverged = not bool(np.all(np.abs(u) <= _DIVERGENCE_LIMIT))

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
    solve is ever blocked.  ``n < 2`` raises ``ValueError``, as in :func:`solve`.
    """
    if n < 2:
        raise ValueError(f"need at least two steps, got n={n!r}")
    if problem.D > 0.0:
        return StabilityVerdict.GuaranteedConvergent
    if problem.D == 0.0:
        return StabilityVerdict.OutsideTheory

    alpha = problem.alpha
    norm = scheme_norm(scheme, alpha)
    ms = np.arange(2, n + 1)
    # lambda_m of the m-step stencil: its interior weight at m plus d_0(m).
    w_last = _interior_weights(scheme, alpha, ms[-1], alpha_constants(alpha))[2:]
    w_last += _tail_deltas(scheme, alpha, ms)[0]
    lower = float(np.min(ms**alpha * (-w_last / norm)))
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
    scalar values bit for bit.  The solutions' ``exp`` and ``cos`` are
    libm's, called per element, and problem I adds its four power terms
    with ``math.fsum`` per point.
    """
    alpha_constants(alpha)  # validates the order once, loudly

    def poly(x):
        return 1.0 + x * (1.0 + x * (1.0 + x * (1.0 + x)))

    @_elementwise
    def poly_forcing(x):
        powers = np.vstack([exact_caputo_power(k, alpha, x) for k in range(1, 5)])
        # math.fsum per point, 1024 points at a time to bound the Python lists.
        blocks = (powers[:, lo : lo + 1024].T.tolist() for lo in range(0, x.size, 1024))
        return np.array([math.fsum(col) for block in blocks for col in block]) + poly(x)

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
