"""Special functions used by the weight constructions and the forcings.

Everything in this module is deterministic: the gamma function (delegated
to :func:`math.gamma`), the Riemann zeta function on the real interval
``(-4, 2)``, the two-parameter Mittag-Leffler function ``E_{1,beta}`` for
complex arguments, and a per-order cache of the handful of zeta/gamma
constants that every weight builder needs.  ``gamma`` and ``zeta`` take
plain floats; :func:`mittag_leffler_1` takes a scalar or an array of
arguments and runs one loop over terms on all points at once; a scalar is
one point of that loop, so arrays give the scalar values bit for bit.

The zeta evaluation uses the alternating (eta) series accelerated with
Chebyshev-polynomial coefficients, which converges geometrically on
``s > 1/2``, together with the functional equation

    zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1 - s) zeta(1 - s)

to cover the negative half of the interval.  Coefficients are computed
once, exactly, as rationals.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np


class NonConvergenceError(RuntimeError):
    """A series failed to meet its tolerance within the term cap."""


def _elementwise(fn):
    """Let ``fn``, written for a 1-D array in its last positional-or-keyword
    parameter (the points), take any scalar or array there.

    The points reach ``fn`` flattened to 1-D (float, or complex when
    complex); the result comes back in the argument's shape, and a scalar
    argument gets a Python scalar back.  Arguments bind by name as in a
    plain call.
    """
    sig = inspect.signature(fn)
    point = [
        name for name, par in sig.parameters.items()
        if par.kind is par.POSITIONAL_OR_KEYWORD
    ][-1]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        arr = np.asarray(bound.arguments[point])
        arr = arr.astype(np.result_type(arr, np.float64), copy=False)
        bound.arguments[point] = arr.reshape(-1)
        out = np.asarray(fn(*bound.args, **bound.kwargs)).reshape(arr.shape)
        return out.item() if out.ndim == 0 else out

    return wrapper


def _libm(fn, xs: np.ndarray, *args) -> np.ndarray:
    """``fn(x, *args)`` for each element of the 1-D ``xs``, as a float array.

    The scalar function is mapped over the points, so powers, exponentials
    and cosines go through the C library one element at a time and give the
    scalar calls' values bit for bit; numpy's vectorized ``power``, ``exp``
    and ``cos`` may differ from them in the last bit.
    """
    return np.fromiter(map(fn, xs.tolist(), *map(itertools.repeat, args)), float, xs.size)


def _exact_sum(x: np.ndarray) -> float:
    """``math.fsum`` of the 1-D float array ``x``, bit for bit, in a few numpy passes.

    Error-free vector extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation part I: faithful rounding", SIAM J. Sci.
    Comput. 31, 2008, Lemma 3.3): with ``sigma`` a power of two at least
    ``2**M * max|p|`` and ``x.size + 2 <= 2**M``, ``q = (sigma + p) - sigma``
    and ``p - q`` are exact and ``sum(q)`` is exact in any order.  Each pass
    leaves a remainder about ``2**(53 - M)`` times smaller; the exact pass
    sums are then rounded once by ``math.fsum``, so the result is the
    correctly rounded sum.  Empty, all-zero, non-finite and huge
    (``max|x| > 2**900``) input goes to ``math.fsum`` itself, which keeps its
    signed zeros, ``inf``/``nan`` and ``OverflowError``.
    """
    p = np.array(x, dtype=float)  # a copy: the passes work in place
    q = np.abs(p)
    mu = float(q.max()) if p.size else 0.0
    if not 0.0 < mu <= 2.0**900:
        return math.fsum(p.tolist())
    scale = 2.0 ** (p.size + 1).bit_length()  # 2**ceil(log2(size + 2))
    taus = []
    while mu:
        sigma = math.ldexp(scale, math.frexp(mu)[1])
        np.add(p, sigma, out=q)
        q -= sigma  # q = (sigma + p) - sigma
        p -= q
        taus.append(float(q.sum()))
        mu = float(np.abs(p, out=q).max())
    return math.fsum(taus)


def gamma(x: float) -> float:
    """Gamma function with an explicit pole check.

    Raises:
        ValueError: if ``x`` is zero or a negative integer (a pole).
    """
    if x <= 0.0 and float(x).is_integer():
        raise ValueError(f"gamma pole at x={x!r}")
    return math.gamma(x)


#: ``B_2j / (2j)!`` for ``j = 1..6``, the Euler-Maclaurin weights.
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)


def _em_tail(x, n, k: int):
    """``sum_{j=1..6} B_2j/(2j)! binom(2j-1, k-1) (x)_(2j-k) n^-(x+2j-k)``, ``x``, ``n`` broadcast.

    ``(x)_q`` is the rising factorial.  With ``k = 1`` this is the large-``n``
    Hurwitz expansion (NIST DLMF §25.11), ``zeta(x, n) = n^(1-x)/(x-1) +
    n^-x/2 + _em_tail(x, n, 1)``.  As ``(x+1)_q - (x)_q = q (x+1)_(q-1)``,
    with ``T = _em_tail(., n, 1)`` the case ``k = 2`` is ``n T(x) - T(x-1)``
    and ``k = 3`` is ``n^2 T(x)/2 - n T(x-1) + T(x-2)/2``: the series of
    ``-K_1`` and ``-K_2`` at ``x = 1 + alpha``.  Six terms hold a few ulps
    for ``n > 50`` and lose digits below.
    """
    coeffs, rising = [], 1.0  # rising = (x)_(2j-k)
    for j, weight in enumerate(_EM_WEIGHTS, start=1):
        for q in range(max(2 * j - k - 2, 0), 2 * j - k):
            rising = rising * (x + q)
        coeffs.append(weight * math.comb(2 * j - 1, k - 1) * rising)
    acc, r = coeffs.pop(), n**-2.0
    for c in reversed(coeffs):  # Horner's rule in n^-2
        acc = acc * r + c
    return acc * n ** -(x + 2 - k)


_BORWEIN_N = 36


def _borwein_coefficients(n: int = _BORWEIN_N) -> tuple[float, ...]:
    # c_k = (d_n - d_k) / d_n as exact rationals, then rounded once.
    terms = []
    for i in range(n + 1):
        terms.append(
            Fraction(math.factorial(n + i - 1) * 4**i,
                     math.factorial(n - i) * math.factorial(2 * i))
        )
    d = []
    acc = Fraction(0)
    for i in range(n + 1):
        acc += terms[i]
        d.append(n * acc)
    dn = d[n]
    return tuple(float((dn - dk) / dn) for dk in d[:n])


_BORWEIN_C = _borwein_coefficients()


def _eta(s: float) -> float:
    # Alternating zeta function, accelerated; reliable for s > -1 but we
    # only call it on s >= 1/2 where the error bound ~ (3+sqrt(8))^-n holds.
    total = 0.0
    sign = 1.0
    for k, ck in enumerate(_BORWEIN_C):
        total += sign * ck * (k + 1.0) ** (-s)
        sign = -sign
    return total


def zeta(s: float) -> float:
    """Riemann zeta on the open interval ``(-4, 2)``.

    The weight constructions only ever need zeta between ``alpha - 3`` and
    ``alpha + 1`` for ``alpha`` in ``(0, 1)``, so the domain is deliberately
    narrow; wider arguments raise rather than silently extrapolate.

    Raises:
        ValueError: at the pole ``s = 1`` or outside ``(-4, 2)``.
    """
    if not -4.0 < s < 2.0:
        raise ValueError(f"zeta restricted to (-4, 2), got s={s!r}")
    if s == 1.0:
        raise ValueError("zeta pole at s=1")
    if 1.0 - s == 1.0:
        # |s| below machine epsilon: 1 - s would round to the pole inside the
        # reflection, and zeta(0) + O(eps) is -1/2 to full precision anyway.
        return -0.5
    if s >= 0.5:
        return _eta(s) / -math.expm1((1.0 - s) * math.log(2.0))
    # Reflect into s' = 1 - s in (0.5, 5) where the eta series converges.
    sp = 1.0 - s
    reflected = _eta(sp) / -math.expm1((1.0 - sp) * math.log(2.0))
    return (
        2.0**s
        * math.pi ** (s - 1.0)
        * math.sin(0.5 * math.pi * s)
        * math.gamma(sp)
        * reflected
    )


@_elementwise
def mittag_leffler_1(beta: float, z, *, max_terms: int = 500):
    """Two-parameter Mittag-Leffler function ``E_{1,beta}(z)``.

    Computed from the defining power series ``sum_k z^k / Gamma(k + beta)``
    with a multiplicative term recurrence.  Truncation stops once the next
    term falls below ``1e-18`` of the largest partial sum seen.  On the
    negative real axis, where that series cancels, it is
    ``scipy.special.hyp1f1(1, beta, z) / Gamma(beta)`` instead.  Worst
    relative error against mpmath (40 digits, nine betas in [0.3, 2]): 2.6e-15
    on [0, 50] and 1.1e-13 on [-50, -0.25].  Non-real ``z`` stays on the
    series and cancels too: on ``|z| = 5, 10, 20`` the error is 5.5e-15,
    5.8e-13, 1.3e-8 with ``Re z >= 0`` and 4.3e-13, 9.1e-9, 2.9 (no digits
    left) with ``Re z < 0``.

    An array of arguments runs through one loop over terms, all points
    still summing at once; each point stops at its own truncation point.
    Real arguments on the series do the float operations of the
    Python-complex series and match it bit for bit; complex ones use
    numpy's complex arithmetic and match it to rounding.

    Args:
        beta: second parameter, must be positive.
        z: complex argument with ``|z| <= 50``, or an array of them.

    Returns:
        The (complex) value, a complex array for array ``z``; take
        ``.real`` for real arguments.

    Raises:
        ValueError: if ``beta <= 0`` or any ``|z| > 50``.
        NonConvergenceError: if the term cap is hit before the tolerance.
    """
    if beta <= 0.0:
        raise ValueError(f"mittag_leffler_1 needs beta > 0, got {beta!r}")
    mag = np.abs(z)
    if (mag > 50.0).any():
        raise ValueError(
            f"mittag_leffler_1 restricted to |z| <= 50, got |z|={float(mag[mag > 50.0][0])!r}"
        )
    out = np.empty(z.size, dtype=complex)
    negative = (z.imag == 0.0) & (z.real < 0.0)
    if negative.any():
        from scipy.special import hyp1f1  # here: no caller in the package needs it

        out[negative] = hyp1f1(1.0, beta, z.real[negative]) / gamma(beta)
    # Term k is term k-1 times z / (k - 1 + beta).  Real arguments stay
    # real: with a zero imaginary part Python's complex operations round
    # exactly as the real ones, and abs() is exact.
    todo = np.flatnonzero(~negative)
    z = z[todo]
    term = np.full(z.size, 1.0 / gamma(beta), dtype=z.dtype)
    total = term.copy()
    peak = np.abs(total)
    for d in np.arange(max_terms) + beta:
        term = term * (z / d)
        total = total + term
        peak = np.fmax(peak, np.abs(total))
        done = np.abs(term) <= 1e-18 * np.maximum(peak, 1e-300)
        if done.any():
            out[todo[done]] = total[done]
            live = ~done
            todo, z, term, total, peak = todo[live], z[live], term[live], total[live], peak[live]
        if not todo.size:
            return out
    raise NonConvergenceError(
        f"mittag_leffler_1(beta={beta!r}, z={z[0].item()!r}) "
        f"did not converge in {max_terms} terms"
    )


@dataclass(frozen=True)
class AlphaConstants:
    """Zeta and gamma values reused by every weight builder for one order.

    The builders are contractually forbidden from re-evaluating these inside
    loops; grab the bundle once via :func:`alpha_constants`.
    """

    alpha: float
    zeta_a: float        # zeta(alpha)
    zeta_am1: float      # zeta(alpha - 1)
    zeta_am2: float      # zeta(alpha - 2)
    zeta_am3: float      # zeta(alpha - 3)
    zeta_ap1: float      # zeta(alpha + 1)
    gamma_1ma: float     # Gamma(1 - alpha)
    gamma_2ma: float     # Gamma(2 - alpha)
    gamma_ma: float      # Gamma(-alpha), negative on (0, 1)


@lru_cache(maxsize=None)
def alpha_constants(alpha: float) -> AlphaConstants:
    """Compute (once) the constant pack for a fractional order in ``(0, 1)``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha!r}")
    return AlphaConstants(
        alpha=alpha,
        zeta_a=zeta(alpha),
        zeta_am1=zeta(alpha - 1.0),
        zeta_am2=zeta(alpha - 2.0),
        zeta_am3=zeta(alpha - 3.0),
        zeta_ap1=zeta(alpha + 1.0),
        gamma_1ma=gamma(1.0 - alpha),
        gamma_2ma=gamma(2.0 - alpha),
        gamma_ma=gamma(-alpha),
    )
