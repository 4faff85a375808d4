"""Caputo derivatives of test functions and stencil application.

This module owns everything that touches actual function values: closed-form
Caputo derivatives for the catalog of smooth test functions, application of a
weight stencil to sampled data, a pointwise fourth-order evaluation formula,
and an adaptive-quadrature oracle used as the reference where no closed form
exists.

The Caputo derivative of order ``alpha`` in ``(0, 1)`` is

    y^(alpha)(x) = (1/Gamma(1-alpha)) * integral_0^x y'(t) (x-t)^(-alpha) dt.

Sampled data is stored right to left (``values[k] = y(x - k*h)``), matching
the lag-index convention of the weight vectors, so applying a stencil is a
plain weighted sum.

Summation policy: accumulations whose terms can cancel are correctly
rounded.  Stencil sums and the fourth-order formula give ``math.fsum``'s value
bit for bit through :func:`specfun._exact_sum`, a few numpy passes of Rump,
Ogita and Oishi's error-free extraction (SIAM J. Sci. Comput. 31, 2008) that
falls back to ``math.fsum`` itself for empty, all-zero, non-finite or huge
input.  The shifted-zeta derivatives, short scalar series, call ``math.fsum``
directly.  The cos series adds its alternating terms on all points at once
with a vectorized TwoSum, the same error terms as Neumaier's compensation.
Plain sums are used only for same-sign terms, where rounding is benign: numpy's
pairwise sums, and problem I's forcing, four non-negative powers added in order.
"""

import heapq
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .specfun import _elementwise, _em_tail, _exact_sum, alpha_constants, mittag_leffler_1
from .schemes import WeightVector

__all__ = [
    "QuadratureError",
    "SampledPath",
    "TestFunction",
    "apply_stencil",
    "caputo_quadrature",
    "exact_caputo_cos2pix",
    "exact_caputo_exp",
    "exact_caputo_power",
    "fourth_order_eval",
    "function_catalog",
    "sample_path",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet the requested tolerance.

    Attributes:
        estimate: the error estimate actually achieved.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class TestFunction:
    """A smooth function together with the data the formulas consume.

    Args:
        name: identifier used by the CLI and the convergence tables.
        eval: vectorized evaluation, ``t -> y(t)``.
        derivatives: callables for y', y'', y''', y'''' in that order.
        exact_caputo: optional closed form ``(alpha, x) -> y^(alpha)(x)``;
            ``None`` means the quadrature oracle is the only reference.

    The endpoint data of the fourth-order formula is derived, not stored:
    ``value_at_zero`` is ``eval(0.0)`` and ``first_deriv_at_zero`` is
    ``derivatives[0](0.0)``, both read-only.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    derivatives: tuple[Callable[[float], float], ...]
    exact_caputo: Optional[Callable[[float, float], float]] = None

    @property
    def value_at_zero(self) -> float:
        return float(self.eval(0.0))

    @property
    def first_deriv_at_zero(self) -> float:
        return float(self.derivatives[0](0.0))


@dataclass(frozen=True)
class SampledPath:
    """Function values on a uniform grid, right to left from the endpoint.

    ``values[k]`` holds ``y(x - k*h)`` with ``h = x/n``, so ``values[0]`` is
    the endpoint value and ``values[n]`` the initial one.
    """

    x: float
    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.x > 0.0:
            raise ValueError(f"endpoint must be positive, got x={self.x!r}")
        if self.n < 2:
            raise ValueError(f"need at least two intervals, got n={self.n}")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.n + 1,):
            raise ValueError(
                f"expected {self.n + 1} samples for n={self.n}, got shape {v.shape}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def h(self) -> float:
        return self.x / self.n


def sample_path(f, x: float, n: int) -> SampledPath:
    """Sample ``f`` (a TestFunction or plain callable) on the stencil grid."""
    h = x / n
    ts = x - h * np.arange(n + 1, dtype=float)
    ts[0] = x
    ts[-1] = 0.0
    fn = f.eval if isinstance(f, TestFunction) else f
    return SampledPath(x=x, n=n, values=np.asarray(fn(ts), dtype=float))


def _check_nonnegative(x: np.ndarray) -> None:
    outside = ~(x >= 0.0)  # NaN is outside too
    if outside.any():
        raise ValueError(f"evaluation point must be >= 0, got x={float(x[outside][0])!r}")


@_elementwise
def exact_caputo_power(p: float, alpha: float, x):
    """Caputo derivative of t^p: Gamma(p+1)/Gamma(p+1-alpha) * x^(p-alpha).

    Restricted to ``p >= 1`` so the first derivative stays bounded at the
    origin and the derivative at ``x = 0`` is zero.  ``x`` is a point or an
    array of points; arrays give the scalar values bit for bit.  Against
    mpmath (400 points on (0, 2], alpha = 0.1, 0.2, ..., 0.9, p = 1..4) the
    worst relative error is 1.8e-15, at p = 4 and small x, where the rounding
    of ``p - alpha`` is scaled by ``|ln x|``; 6.2e-16 at p = 1.
    """
    if p < 1.0:
        raise ValueError(f"power rule restricted to p >= 1, got p={p!r}")
    _check_nonnegative(x)
    c = alpha_constants(alpha)
    return math.gamma(p + 1.0) / math.gamma(p + 1.0 - c.alpha) * x ** (p - c.alpha)


@_elementwise
def exact_caputo_exp(alpha: float, x):
    """Caputo derivative of e^t: x^(1-alpha) * E_{1,2-alpha}(x).

    ``x`` is a point or an array of points; an array costs one
    :func:`mittag_leffler_1` call and gives the scalar values bit for bit.
    Against mpmath (400 points on (0, 2], alpha = 0.1, 0.2, ..., 0.9) the
    worst relative error is 1.1e-15.
    """
    c = alpha_constants(alpha)
    _check_nonnegative(x)
    # At x = 0 the power is +0.0, so the product is the exact zero.
    return x ** (1.0 - alpha) * mittag_leffler_1(2.0 - c.alpha, x).real


@_elementwise
def exact_caputo_cos2pix(alpha: float, x):
    """Caputo derivative of cos(2*pi*t), by its real power series.

    Sums ``sum_{k>=1} (-4 pi^2)^k x^(2k-alpha) / Gamma(2k+1-alpha)`` with the
    ratio recurrence, truncating once a term drops below 1e-16 of the largest
    term so far.  The terms initially grow (the series is alternating with
    ratio ~ (2 pi x)^2 / (2k)^2), which is why the domain stops at x = 2.
    ``x`` is a point or an array of points; an array runs through one loop
    over terms, and each point stops at its own truncation point.  Each
    term runs only on the live suffix: the leading points that have
    finished drop out of it, and a finished point inside it has its later
    terms set to exact zeros, which leave its sum as it is, so any order of
    the points gives the same values.  Every step of a term writes into
    two float work arrays and one boolean one, allocated once.

    The terms are added with Knuth's branch-free TwoSum, whose exact
    rounding errors are Neumaier's (Ogita, Rump and Oishi, SIAM J. Sci.
    Comput. 26, 2005), so the error is that of the terms themselves,
    which grow with x.  Against mpmath (2000 points
    per interval, alpha = 0.1, 0.2, ..., 0.9) the worst absolute error is
    6.5e-14 on (0, 1] and 2.7e-11 on [1, 2].
    """
    alpha_constants(alpha)  # validates the order
    outside = ~((0.0 <= x) & (x <= 2.0))
    if outside.any():
        raise ValueError(
            f"series evaluation restricted to [0, 2], got x={float(x[outside][0])!r}"
        )
    neg_4pi2 = -4.0 * math.pi**2
    ratio = neg_4pi2 * x**2
    term = neg_4pi2 * x ** (2.0 - alpha) / math.gamma(3.0 - alpha)
    total = term.copy()
    comp = np.zeros(x.size)
    scale = np.abs(term)
    work, spare, done = np.empty(x.size), np.empty(x.size), np.empty(x.size, dtype=bool)
    live = 0  # every point before it has finished
    for k in range(1, 300):
        t, r, s, c, g, w, v, d = (a[live:] for a in (term, ratio, total, comp, scale, work, spare, done))
        t *= np.divide(r, (2.0 * k + 1.0 - alpha) * (2.0 * k + 2.0 - alpha), out=v)
        np.add(s, t, out=w)  # big = total + term
        np.subtract(w, s, out=v)  # low = big - total
        np.subtract(s, np.subtract(w, v, out=w), out=w)  # total - (big - low)
        w += np.subtract(t, v, out=v)  # TwoSum: exactly total + term - big
        c += w
        s += t  # total = big, bit for bit
        np.maximum(g, np.abs(t, out=v), out=g)
        np.less_equal(v, np.multiply(g, 1e-16, out=w), out=d)
        if d.all():
            break
        r[d] = 0.0  # a finished point's later terms are exact zeros
        live += int(d.argmin())  # to the first point still running
    total += comp
    return total


def apply_stencil(wv: WeightVector, path: SampledPath) -> float:
    """Evaluate ``sum_k w_k y(x - k h) / (C h^alpha)`` for one stencil.

    The weighted sum is correctly rounded, ``math.fsum``'s value bit for
    bit, by :func:`specfun._exact_sum` (Rump, Ogita and Oishi 2008; non-finite
    or huge products fall back to ``math.fsum``), so cancellation between
    the weights costs no precision.
    """
    if wv.n != path.n:
        raise ValueError(
            f"stencil has {wv.n + 1} weights but path has {path.n + 1} samples"
        )
    h = path.h
    acc = _exact_sum(wv.weights * path.values)
    return acc / (wv.norm * h**wv.alpha)


def fourth_order_eval(f: TestFunction, alpha: float, x: float, n: int) -> float:
    """Pointwise fourth-order Caputo evaluation at ``x`` with ``h = x/n``.

    Combines the right-sided power-kernel sum of the sampled values with
    zeta-weighted endpoint derivative corrections (orders one through four)
    and the h^2 initial-point term; the result converges as O(h^4).  All
    terms share one correctly rounded sum (:func:`specfun._exact_sum`) so
    the large kernel/zeta cancellation costs no precision.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got n={n}")
    if not x > 0.0:
        raise ValueError(f"evaluation point must be positive, got x={x!r}")
    c = alpha_constants(alpha)
    a = c.alpha
    h = x / n
    ks = np.arange(1, n, dtype=float)
    vals = np.asarray(f.eval(x - h * ks), dtype=float)
    hma = h**-a
    y0 = f.value_at_zero
    d1, d2, d3, d4 = (float(g(x)) for g in f.derivatives)
    corrections = [
        -c.zeta_ap1 * float(f.eval(x)) * hma,
        y0 / (a * x**a),
        y0 * h / (2.0 * x ** (1.0 + a)),
        c.zeta_a * d1 * h ** (1.0 - a),
        -0.5 * c.zeta_am1 * d2 * h ** (2.0 - a),
        c.zeta_am2 * d3 * h ** (3.0 - a) / 6.0,
        -c.zeta_am3 * d4 * h ** (4.0 - a) / 24.0,
        (x * f.first_deriv_at_zero + (1.0 + a) * y0) * h * h / (12.0 * x ** (2.0 + a)),
    ]
    return _exact_sum(np.concatenate((vals * ks ** (-1.0 - a) * hma, corrections))) / c.gamma_ma


#: Point counts of each panel's two Gauss rules: the larger gives its value,
#: their gap its error estimate.
_RULES = (16, 24)
_PANEL_LIMIT = 400


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)  # at the first call: import skips numpy.polynomial


@lru_cache(maxsize=64)
def _gauss_jacobi(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of the n-point Gauss rule for the weight ``v^(-alpha)``.

    Golub and Welsch (Math. Comp. 23, 1969): the eigenvalues of the Jacobi
    matrix of ``P^(0, -alpha)`` moved to [0, 1], and ``1/(1-alpha)`` times
    the squared first components of their eigenvectors.
    """
    b = -alpha
    k = np.arange(1.0, n)
    s = 2.0 * k + b
    diag = np.concatenate(([b / (b + 2.0)], b * b / (s * (s + 2.0))))
    off = 2.0 * k * (k + b) / (s * np.sqrt(s * s - 1.0))
    nodes, vectors = np.linalg.eigh(np.diag(0.5 + 0.5 * diag) + np.diag(0.5 * off, -1))
    return nodes, vectors[0] ** 2 / (1.0 - alpha)


def _panel(g: Callable[[np.ndarray], np.ndarray], alpha: float, lo: float, hi: float) -> tuple:
    """``(-estimate, lo, hi, value)`` of ``integral_lo^hi g(v) v^(-alpha) dv``, a heap entry.

    A panel at 0 takes Gauss-Jacobi rules, exact on the weight's
    singularity; any other takes Gauss-Legendre with the weight folded in.
    """
    sums = []
    for n in _RULES:
        if lo == 0.0:
            nodes, weights = _gauss_jacobi(alpha, n)
            v = hi * nodes
            w = hi ** (1.0 - alpha) * weights
        else:
            nodes, weights = _gauss_legendre(n)
            v = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
            w = 0.5 * (hi - lo) * weights * v**-alpha
        sums.append(float(w @ g(v)))
    return -abs(sums[1] - sums[0]), lo, hi, sums[1]


def caputo_quadrature(
    fprime: Callable[[float], float], alpha: float, x: float, tol: float = 1e-12
) -> float:
    """Reference Caputo derivative by adaptive Gauss quadrature of the definition.

    With ``t = x - x v`` the derivative is
    ``x^(1-alpha)/Gamma(1-alpha) * integral_0^1 y'(x - x v) v^(-alpha) dv``.
    Panels start as [0, 1].  The panel at 0 takes the 16- and 24-point
    Gauss-Jacobi rules for the weight ``v^(-alpha)``, computed by Golub and
    Welsch, so the singularity costs nothing; every other panel takes the
    16- and 24-point Gauss-Legendre rules.  A panel's value is its 24-point
    sum, its error estimate the gap to its 16-point sum.  The panel with the
    largest estimate is bisected until the summed estimate, scaled as the
    value, is at most ``max(tol, tol * |value|)``, or until there are 400
    panels, as with ``quad``'s ``limit=400``.  ``fprime`` gets one float
    inside ``(0, x)`` per call.

    Against mpmath at 30 digits, for the derivative of ``zeta(t + 2)`` on
    alpha 0.1, 0.2, ..., 0.9 and x 0.5, 1, ..., 3, the worst relative error
    is 3.5e-15 (alpha 0.2, x 3, from the rounding of the nodes where the
    integrand is steepest); scipy's ``quad`` read 2.1e-14.  A kink, a step
    and a square-root cusp inside ``(0, x)`` read 8e-16, 5.6e-13 and 3.2e-13
    at ``tol = 1e-12``.

    Raises:
        QuadratureError: when 400 panels leave the error estimate above the
            tolerance, or it is not finite; the achieved estimate is attached
            to the exception.
    """
    if tol < 1e-12:
        raise ValueError(f"tolerances below 1e-12 are not achievable, got {tol!r}")
    if not x > 0.0:
        raise ValueError(f"evaluation point must be positive, got x={x!r}")
    c = alpha_constants(alpha)
    a = c.alpha
    scale = x ** (1.0 - a) / c.gamma_1ma

    def integrand(v: np.ndarray) -> np.ndarray:
        return np.array([fprime(t) for t in (x - x * v).tolist()], dtype=float)

    panels = [_panel(integrand, a, 0.0, 1.0)]
    while True:
        value = scale * math.fsum(p[3] for p in panels)
        estimate = -scale * math.fsum(p[0] for p in panels)
        if estimate <= max(tol, tol * abs(value)):
            return value
        if len(panels) >= _PANEL_LIMIT or not math.isfinite(estimate):
            raise QuadratureError(
                f"quadrature stalled at error estimate {estimate:.3e} (requested {tol:.1e}) "
                f"with {len(panels)} panels",
                estimate,
            )
        _, lo, hi, _ = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        heapq.heappush(panels, _panel(integrand, a, lo, mid))
        heapq.heappush(panels, _panel(integrand, a, mid, hi))


# ---------------------------------------------------------------------------
# test-function catalog
# ---------------------------------------------------------------------------

# The shifted-zeta function is a truncated Dirichlet series plus the Hurwitz
# tail zeta(s, _ZS_N) of specfun._em_tail, whose first omitted term is below
# 6e-37 of the sum for s = t + 2 >= 2.  The m-th derivative, a sum of
# (-ln k)^m k^(-s), keeps its own tail: the Euler-Maclaurin terms of
# (ln u)^m u^(-s) are u^(-s-j) P_j(ln u), polynomials in ln u with
# P_{j+1} = P_j' - (s+j) P_j, not a rising factorial times a power.
_ZS_N = 256
_ZS_KS = np.arange(1.0, _ZS_N)
#: ``k`` and ``ln(k)**m`` at index ``m = 0..4`` for ``k = 2 .. _ZS_N - 1``.
_ZS_FLOATS = _ZS_KS[1:].tolist()
_ZS_LOGS = [[math.log(k) ** m for k in _ZS_FLOATS] for m in range(5)]


@_elementwise
def _zeta_shift_eval(t):
    s = t + 2.0
    direct = np.sum(_ZS_KS[None, :] ** (-s[:, None]), axis=1)
    return direct + (_ZS_N ** (1.0 - s) / (s - 1.0) + _ZS_N**-s / 2.0 + _em_tail(s, _ZS_N, 1))


# The m-th derivative of zeta(t + 2), m = 1..4, is within 1.5e-15 relative of
# mpmath on t in [0, 3] (1.09e-15 measured at 601 points, 30 digits).
def _zeta_shift_derivative(t: float, m: int) -> float:
    s = float(t) + 2.0
    direct = math.fsum(map(operator.mul, _ZS_LOGS[m], map(pow, _ZS_FLOATS, repeat(-s))))
    polys = [[0.0] * m + [1.0]]
    for j in range(5):
        cur = polys[-1]
        der = [(i + 1) * cur[i + 1] if i + 1 < len(cur) else 0.0 for i in range(len(cur))]
        polys.append([der[i] - (s + j) * cur[i] for i in range(len(cur))])
    big_l = math.log(_ZS_N)
    f_at_n = [
        _ZS_N ** (-s - j) * math.fsum(cc * big_l**i for i, cc in enumerate(p))
        for j, p in enumerate(polys)
    ]
    z = (s - 1.0) * big_l
    integral = (
        math.factorial(m)
        * math.exp(-z)
        * math.fsum(z**j / math.factorial(j) for j in range(m + 1))
        / (s - 1.0) ** (m + 1)
    )
    tail = integral + f_at_n[0] / 2.0 - f_at_n[1] / 12.0 + f_at_n[3] / 720.0 - f_at_n[5] / 30240.0
    return (-1.0) ** m * (direct + tail)


def _geometric_caputo(alpha: float, x: float, denominator: complex, ratio: complex) -> float:
    """Real part of ``sum_m x^(1-alpha) ratio^m / (denominator (m + 1 - alpha) Gamma(1 - alpha))``.

    The Caputo derivative of a function whose derivative expands in a
    geometric series inside the definition.  Complex arithmetic on real
    inputs does the same float operations as real arithmetic would.  The
    order is validated before any term is formed.
    """
    gamma_1ma = alpha_constants(alpha).gamma_1ma
    term, acc = complex(x ** (1.0 - alpha) / denominator), 0.0j
    for m in range(400):
        acc += term / (m + 1.0 - alpha)
        term *= ratio
        if abs(term) < 1e-18 * max(abs(acc), 1e-300):
            break
    return acc.real / gamma_1ma


def _caputo_arctan_series(alpha: float, x: float) -> float:
    # 1/(1+it) expanded geometrically; converges for all x > 0 with ratio
    # x/sqrt(1+x^2).
    return _geometric_caputo(alpha, x, 1.0 + 1j * x, 1j * x / (1.0 + 1j * x))


def _caputo_log1p_series(alpha: float, x: float) -> float:
    # 1/(1+t) expanded geometrically, with ratio x/(1+x).
    return _geometric_caputo(alpha, x, 1.0 + x, x / (1.0 + x))


_TWO_PI = 2.0 * math.pi


def _power(p: int) -> TestFunction:
    """``t^p``: its derivatives by the power rule, its Caputo derivative in closed form."""

    def derivative(k: int) -> Callable[[float], float]:
        c = math.perm(p, k)  # p!/(p-k)!
        return (lambda t: c * t ** (p - k)) if k <= p else (lambda t: 0.0)

    return TestFunction("t" if p == 1 else f"t{p}", lambda t: np.power(t, float(p)),
                        tuple(map(derivative, range(1, 5))), partial(exact_caputo_power, p))


def _log1p_derivative(k: int) -> Callable[[float], float]:
    """The k-th derivative of ``log(1 + t)``: ``(-1)^(k+1) (k-1)! / (1+t)^k``."""
    c = (-1) ** (k + 1) * math.factorial(k - 1)
    return lambda t: c / (1.0 + t) ** k


@lru_cache(maxsize=None)
def _catalog() -> dict[str, TestFunction]:
    catalog = [
        *map(_power, range(1, 5)),
        TestFunction("exp", np.exp, (math.exp,) * 4, exact_caputo_exp),
        TestFunction(
            "cos2pi",
            lambda t: np.cos(_TWO_PI * np.asarray(t, dtype=float)),
            (
                lambda t: -_TWO_PI * math.sin(_TWO_PI * t),
                lambda t: -(_TWO_PI**2) * math.cos(_TWO_PI * t),
                lambda t: _TWO_PI**3 * math.sin(_TWO_PI * t),
                lambda t: _TWO_PI**4 * math.cos(_TWO_PI * t),
            ),
            exact_caputo_cos2pix,
        ),
        TestFunction(
            "arctan",
            np.arctan,
            (
                lambda t: 1.0 / (1.0 + t * t),
                lambda t: -2.0 * t / (1.0 + t * t) ** 2,
                lambda t: (6.0 * t * t - 2.0) / (1.0 + t * t) ** 3,
                lambda t: 24.0 * t * (1.0 - t * t) / (1.0 + t * t) ** 4,
            ),
            _caputo_arctan_series,
        ),
        TestFunction("log1p", np.log1p, tuple(map(_log1p_derivative, range(1, 5))), _caputo_log1p_series),
        TestFunction(
            "zeta_shift2",
            _zeta_shift_eval,
            tuple(partial(_zeta_shift_derivative, m=m) for m in range(1, 5)),
        ),
    ]
    return {f.name: f for f in catalog}


def function_catalog() -> dict[str, TestFunction]:
    """Named test functions; keys are the CLI spellings."""
    return dict(_catalog())
