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
input.  The shifted-zeta series, a short scalar generator, calls ``math.fsum``
directly.  The cos series adds its alternating terms on all points at once with
a vectorized Neumaier compensation.  Ordinary numpy pairwise sums are used only
for same-sign series where rounding is benign.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .specfun import _elementwise, _em_tail, _exact_sum, _libm, alpha_constants, mittag_leffler_1
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
        value_at_zero: y(0).
        first_deriv_at_zero: y'(0).
        exact_caputo: optional closed form ``(alpha, x) -> y^(alpha)(x)``;
            ``None`` means the quadrature oracle is the only reference.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    derivatives: tuple[Callable[[float], float], ...]
    value_at_zero: float
    first_deriv_at_zero: float
    exact_caputo: Optional[Callable[[float, float], float]] = None


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
    if (x < 0.0).any():
        raise ValueError(f"negative evaluation point x={float(x[x < 0.0][0])!r}")


@_elementwise
def exact_caputo_power(p: float, alpha: float, x):
    """Caputo derivative of t^p: Gamma(p+1)/Gamma(p+1-alpha) * x^(p-alpha).

    Restricted to ``p >= 1`` so the first derivative stays bounded at the
    origin and the derivative at ``x = 0`` is zero.  ``x`` is a point or an
    array of points; arrays give the scalar values bit for bit.
    """
    if p < 1.0:
        raise ValueError(f"power rule restricted to p >= 1, got p={p!r}")
    _check_nonnegative(x)
    c = alpha_constants(alpha)
    return math.gamma(p + 1.0) / math.gamma(p + 1.0 - c.alpha) * _libm(pow, x, p - c.alpha)


@_elementwise
def exact_caputo_exp(alpha: float, x):
    """Caputo derivative of e^t: x^(1-alpha) * E_{1,2-alpha}(x).

    ``x`` is a point or an array of points; an array costs one
    :func:`mittag_leffler_1` call and gives the scalar values bit for bit.
    """
    c = alpha_constants(alpha)
    _check_nonnegative(x)
    # At x = 0 the power is +0.0, so the product is the exact zero.
    return _libm(pow, x, 1.0 - alpha) * mittag_leffler_1(2.0 - c.alpha, x).real


@_elementwise
def exact_caputo_cos2pix(alpha: float, x):
    """Caputo derivative of cos(2*pi*t), by its real power series.

    Sums ``sum_{k>=1} (-4 pi^2)^k x^(2k-alpha) / Gamma(2k+1-alpha)`` with the
    ratio recurrence, truncating once a term drops below 1e-16 of the largest
    term so far.  The terms initially grow (the series is alternating with
    ratio ~ (2 pi x)^2 / (2k)^2), which is why the domain stops at x = 2.
    ``x`` is a point or an array of points; an array runs through one loop
    over terms, and each point stops at its own truncation point.

    The terms are added with Neumaier's compensation, so the error is that
    of the terms themselves, which grow with x.  Against mpmath (2000 points
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
    out = np.zeros(x.size)
    todo = np.flatnonzero(x)
    ratio = neg_4pi2 * x[todo] ** 2
    term = neg_4pi2 * x[todo] ** (2.0 - alpha) / math.gamma(3.0 - alpha)
    total = term
    comp = np.zeros(todo.size)
    scale = np.abs(term)
    for k in range(1, 300):
        if not todo.size:
            break
        term = term * (ratio / ((2.0 * k + 1.0 - alpha) * (2.0 * k + 2.0 - alpha)))
        big = total + term
        comp += np.where(np.abs(total) >= np.abs(term), (total - big) + term, (term - big) + total)
        total = big
        scale = np.maximum(scale, np.abs(term))
        done = np.abs(term) <= 1e-16 * scale
        if done.any():
            out[todo[done]] = (total + comp)[done]
            live = ~done
            todo, ratio, term, total, comp, scale = (
                todo[live], ratio[live], term[live], total[live], comp[live], scale[live]
            )
    out[todo] = total + comp
    return out


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


def caputo_quadrature(
    fprime: Callable[[float], float], alpha: float, x: float, tol: float = 1e-12
) -> float:
    """Reference Caputo derivative by adaptive quadrature of the definition.

    The substitution ``u = (x - t)^(1-alpha)`` removes the endpoint
    singularity: the integral becomes
    ``(1/(Gamma(1-alpha)(1-alpha))) * integral_0^(x^(1-alpha)) y'(x - u^(1/(1-alpha))) du``
    over a bounded smooth integrand, handed to scipy's adaptive quadrature.

    Raises:
        QuadratureError: when the error estimate exceeds the tolerance; the
            achieved estimate is attached to the exception.
    """
    if tol < 1e-12:
        raise ValueError(f"tolerances below 1e-12 are not achievable, got {tol!r}")
    if not x > 0.0:
        raise ValueError(f"evaluation point must be positive, got x={x!r}")
    c = alpha_constants(alpha)
    a = c.alpha
    power = 1.0 / (1.0 - a)

    def integrand(u: float) -> float:
        return fprime(x - u**power)

    upper = x ** (1.0 - a)
    result = quad(integrand, 0.0, upper, epsabs=tol, epsrel=tol, limit=400, full_output=1)
    value, estimate = result[0], result[1]
    scaled = value / (c.gamma_1ma * (1.0 - a))
    if len(result) > 3 or estimate > 10.0 * max(tol, abs(value) * tol):
        raise QuadratureError(
            f"quadrature stalled at error estimate {estimate:.3e} (requested {tol:.1e})",
            estimate / (c.gamma_1ma * (1.0 - a)),
        )
    return scaled


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


def _zeta_shift_eval(t):
    s = np.asarray(t, dtype=float) + 2.0
    flat = np.atleast_1d(s).astype(float)
    direct = np.sum(_ZS_KS[None, :] ** (-flat[:, None]), axis=1)
    tail = _ZS_N ** (1.0 - flat) / (flat - 1.0) + _ZS_N**-flat / 2.0 + _em_tail(flat, _ZS_N, 1)
    out = direct + tail
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out.reshape(np.shape(t))


def _zeta_shift_derivative(t: float, m: int) -> float:
    s = float(t) + 2.0
    direct = math.fsum(math.log(k) ** m * k**-s for k in range(2, _ZS_N))
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


def _build_catalog() -> dict[str, TestFunction]:
    catalog = [
        TestFunction(
            "t",
            lambda t: np.asarray(t, dtype=float),
            (lambda t: 1.0, lambda t: 0.0, lambda t: 0.0, lambda t: 0.0),
            0.0,
            1.0,
            lambda a, x: exact_caputo_power(1.0, a, x),
        ),
        TestFunction(
            "t2",
            lambda t: np.square(t),
            (lambda t: 2.0 * t, lambda t: 2.0, lambda t: 0.0, lambda t: 0.0),
            0.0,
            0.0,
            lambda a, x: exact_caputo_power(2.0, a, x),
        ),
        TestFunction(
            "t3",
            lambda t: np.power(t, 3),
            (lambda t: 3.0 * t * t, lambda t: 6.0 * t, lambda t: 6.0, lambda t: 0.0),
            0.0,
            0.0,
            lambda a, x: exact_caputo_power(3.0, a, x),
        ),
        TestFunction(
            "t4",
            lambda t: np.power(t, 4),
            (
                lambda t: 4.0 * t**3,
                lambda t: 12.0 * t * t,
                lambda t: 24.0 * t,
                lambda t: 24.0,
            ),
            0.0,
            0.0,
            lambda a, x: exact_caputo_power(4.0, a, x),
        ),
        TestFunction(
            "exp",
            np.exp,
            (math.exp, math.exp, math.exp, math.exp),
            1.0,
            1.0,
            exact_caputo_exp,
        ),
        TestFunction(
            "cos2pi",
            lambda t: np.cos(_TWO_PI * np.asarray(t, dtype=float)),
            (
                lambda t: -_TWO_PI * math.sin(_TWO_PI * t),
                lambda t: -(_TWO_PI**2) * math.cos(_TWO_PI * t),
                lambda t: _TWO_PI**3 * math.sin(_TWO_PI * t),
                lambda t: _TWO_PI**4 * math.cos(_TWO_PI * t),
            ),
            1.0,
            0.0,
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
            0.0,
            1.0,
            _caputo_arctan_series,
        ),
        TestFunction(
            "log1p",
            np.log1p,
            (
                lambda t: 1.0 / (1.0 + t),
                lambda t: -1.0 / (1.0 + t) ** 2,
                lambda t: 2.0 / (1.0 + t) ** 3,
                lambda t: -6.0 / (1.0 + t) ** 4,
            ),
            0.0,
            1.0,
            _caputo_log1p_series,
        ),
        TestFunction(
            "zeta_shift2",
            _zeta_shift_eval,
            tuple(
                (lambda m: lambda t: _zeta_shift_derivative(t, m))(m)
                for m in range(1, 5)
            ),
            _zeta_shift_eval(0.0),
            _zeta_shift_derivative(0.0, 1),
            None,
        ),
    ]
    return {f.name: f for f in catalog}


_CATALOG = None


def function_catalog() -> dict[str, TestFunction]:
    """Named test functions; keys are the CLI spellings."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return dict(_CATALOG)
