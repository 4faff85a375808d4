"""Weight stencils for finite-difference Caputo derivatives of order alpha in (0, 1).

Every scheme here approximates ``y^(alpha)(x)`` on a uniform grid ``h = x/n``
by a one-sided stencil

    y^(alpha)(x)  ~=  (1/(C h^alpha)) * sum_{k=0}^n w_k y(x - k h),

where ``C`` is a normalization constant fixed by the scheme family.  Three
families are implemented, each as a base vector plus optional head (indices
0..2) and tail (indices n-2..n) correction stencils; on coarse grids the
head and tail overlap and their contributions are summed.

* L1 family, ``C = Gamma(2-alpha)``: differences of ``k^(1-alpha)``.
  ``L1`` is the plain scheme of order ``2-alpha``; ``L1Second`` adds a
  ``zeta(alpha-1)`` second-difference at the head and has order 2.
* Midpoint family, ``C = 2*Gamma(1-alpha)``: differences of ``k^(-alpha)``
  two indices apart.  ``MidLow`` is the uncorrected order-(1-alpha) rule;
  ``MidRaw`` fixes the head with ``zeta(alpha)`` (order ``2-alpha`` only
  when ``y'(0) = 0``); ``Mid2mAlpha`` adds the ``W_n`` tail correction for
  unconditional order ``2-alpha``; ``Mid2`` additionally cancels the
  ``h^(2-alpha)`` term with a ``zeta(alpha-1)`` second difference (order 2).
* Right-sum family, ``C = Gamma(-alpha) < 0``: weights ``k^(-1-alpha)``
  with a ``-zeta(1+alpha)`` leading weight.  ``RightLow`` (order
  ``1-alpha``), ``RightRaw`` (head-corrected), ``Right2mAlpha`` (``K_1``
  tail, order ``2-alpha``), and ``Right3mAlpha`` (three-point head and
  ``K_1``/``K_2`` tail, order ``3-alpha``).

Tail corrections are built from the harmonic deficits

    S_n[s]   = sum_{k=1}^{n-1} k^(-s) - zeta(s),
    W_n      = S_n[alpha] - n^(1-alpha)/(1-alpha),
    K_1      = n S_n[1+alpha] - S_n[alpha] + n^(1-alpha)/(alpha(1-alpha)),
    K_2      = (n^2/2) S_n[1+alpha] - n S_n[alpha] + S_n[alpha-1]/2
               + n^(2-alpha)/(alpha(alpha-1)(alpha-2)).

The closed forms above suffer catastrophic cancellation for large n (the
K_2 one loses ~n^2 ulps), so past ``n = 50`` they are evaluated by their
Euler-Maclaurin expansions instead; both branches agree to ~1e-13 relative
at the crossover, which the test suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .specfun import AlphaConstants, alpha_constants, zeta

#: Largest n for which the deficit closed forms are evaluated directly.
_ASYM_N = 50


class SchemeId(Enum):
    """Identifier of a weight scheme; values double as CLI spellings."""

    L1 = "l1"
    L1Second = "l1second"
    MidLow = "midlow"
    MidRaw = "midraw"
    Mid2mAlpha = "mid2malpha"
    Mid2 = "mid2"
    RightLow = "rightlow"
    RightRaw = "rightraw"
    Right2mAlpha = "right2malpha"
    Right3mAlpha = "right3malpha"


_L1_FAMILY = (SchemeId.L1, SchemeId.L1Second)
_MID_FAMILY = (SchemeId.MidLow, SchemeId.MidRaw, SchemeId.Mid2mAlpha, SchemeId.Mid2)
_RIGHT_FAMILY = (
    SchemeId.RightLow,
    SchemeId.RightRaw,
    SchemeId.Right2mAlpha,
    SchemeId.Right3mAlpha,
)


def scheme_norm(scheme: SchemeId, alpha: float) -> float:
    """Normalization constant C of the scheme's family.

    Negative for the right-sum family (``Gamma(-alpha) < 0`` on (0,1)),
    which flips the orientation of every weight; comparisons of sign
    patterns must divide that out (see :func:`validate_weights`).
    """
    c = alpha_constants(alpha)
    if scheme in _L1_FAMILY:
        return c.gamma_2ma
    if scheme in _MID_FAMILY:
        return 2.0 * c.gamma_1ma
    return c.gamma_ma


def nominal_order(scheme: SchemeId, alpha: float) -> float:
    """Theoretical convergence order of the scheme for smooth data.

    ``MidRaw`` and ``RightRaw`` reach the stated ``2 - alpha`` only when
    ``y'(0) = 0``; without that they degrade to first order because their
    tails do not cancel the ``y'(0)`` residual.
    """
    if scheme in (SchemeId.MidLow, SchemeId.RightLow):
        return 1.0 - alpha
    if scheme in (SchemeId.L1Second, SchemeId.Mid2):
        return 2.0
    if scheme is SchemeId.Right3mAlpha:
        return 3.0 - alpha
    return 2.0 - alpha


@dataclass(frozen=True)
class WeightVector:
    """Full stencil ``w_0..w_n`` of one scheme at one ``(alpha, n)``.

    Weights are stored raw (printed-formula convention, not sign
    normalized), so closed-form values can be compared directly;
    :func:`normalized_lambda` produces the solver-facing form.
    """

    scheme: SchemeId
    alpha: float
    n: int
    weights: np.ndarray
    norm: float

    def __post_init__(self) -> None:
        self.weights.setflags(write=False)


@dataclass(frozen=True)
class HarmonicDeficit:
    """Value of ``S_n[alpha] = sum_{k=1}^{n-1} k^(-alpha) - zeta(alpha)``.

    Supports constant-time extension ``n -> n+1``, which the relaxation
    solver uses to grow tail corrections one step at a time.
    """

    alpha: float
    n: int
    value: float

    @classmethod
    def start(cls, alpha: float) -> "HarmonicDeficit":
        return cls(alpha, 2, 1.0 - zeta(alpha))

    def extended(self) -> "HarmonicDeficit":
        return HarmonicDeficit(self.alpha, self.n + 1, self.value + float(self.n) ** -self.alpha)


def harmonic_deficit(alpha: float, n: int) -> float:
    """Harmonic deficit ``S_n[alpha]`` by compensated direct summation.

    Args:
        alpha: exponent, in ``(-1, 2)`` excluding 1 (the zeta pole).
        n: grid size, ``n >= 2``.
    """
    if n < 2:
        raise ValueError(f"harmonic_deficit needs n >= 2, got {n!r}")
    if not -1.0 < alpha < 2.0 or alpha == 1.0:
        raise ValueError(f"harmonic_deficit exponent outside (-1,2)\\{{1}}: {alpha!r}")
    return math.fsum(float(k) ** -alpha for k in range(1, n)) - zeta(alpha)


# --- deficit-derived tail coefficients -------------------------------------
#
# Each has a closed form in S_n values and an Euler-Maclaurin series; the
# series is used beyond _ASYM_N where the closed form cancels catastrophically.


def _w_mid_series(alpha: float, n: float) -> float:
    a = alpha
    na = n ** -a
    return (
        -0.5 * na
        - a * na / (12.0 * n)
        + a * (1 + a) * (2 + a) * na / (720.0 * n**3)
        - a * (1 + a) * (2 + a) * (3 + a) * (4 + a) * na / (30240.0 * n**5)
    )


def _w_mid_closed(alpha: float, n: float, s_a: float) -> float:
    return s_a - n ** (1.0 - alpha) / (1.0 - alpha)


def _k1_series(alpha: float, n: float) -> float:
    a = alpha
    base = n ** (-1.0 - a)
    return base * (
        -1.0 / 12.0
        + (1 + a) * (2 + a) / (240.0 * n**2)
        - (1 + a) * (2 + a) * (3 + a) * (4 + a) / (6048.0 * n**4)
        + (1 + a) * (2 + a) * (3 + a) * (4 + a) * (5 + a) * (6 + a) / (172800.0 * n**6)
    )


def _k1_closed(alpha: float, n: float, s_a: float, s_a1: float) -> float:
    return n * s_a1 - s_a + n ** (1.0 - alpha) / (alpha * (1.0 - alpha))


def _k2_series(alpha: float, n: float) -> float:
    a = alpha
    base = n ** (-2.0 - a)
    return base * (
        (1 + a) / 240.0
        - (1 + a) * (2 + a) * (3 + a) / (3024.0 * n**2)
        + (1 + a) * (2 + a) * (3 + a) * (4 + a) * (5 + a) / (57600.0 * n**4)
        - (1 + a) * (2 + a) * (3 + a) * (4 + a) * (5 + a) * (6 + a) * (7 + a)
        / (1330560.0 * n**6)
    )


def _k2_closed(alpha: float, n: float, s_a: float, s_a1: float, s_am1: float) -> float:
    return (
        0.5 * n * n * s_a1
        - n * s_a
        + 0.5 * s_am1
        + n ** (2.0 - alpha) / (alpha * (alpha - 1.0) * (alpha - 2.0))
    )


def midpoint_tail_deficit(alpha: float, n: int) -> float:
    """Midpoint tail coefficient ``W_n = S_n[alpha] - n^(1-alpha)/(1-alpha)``."""
    if n > _ASYM_N:
        return _w_mid_series(alpha, float(n))
    return _w_mid_closed(alpha, float(n), harmonic_deficit(alpha, n))


def k1_coefficient(alpha: float, n: int) -> float:
    """First-derivative tail coefficient ``K_1`` of the right-sum family.

    Evaluates ``n S_n[1+alpha] - S_n[alpha] + n^(1-alpha)/(alpha(1-alpha))``
    directly for ``n <= 50`` and by its Euler-Maclaurin expansion beyond,
    where the closed form would lose ~n ulps to cancellation.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha!r}")
    if n > _ASYM_N:
        return _k1_series(alpha, float(n))
    return _k1_closed(
        alpha, float(n), harmonic_deficit(alpha, n), harmonic_deficit(alpha + 1.0, n)
    )


def k2_coefficient(alpha: float, n: int) -> float:
    """Second-derivative tail coefficient ``K_2`` of the right-sum family."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha!r}")
    if n > _ASYM_N:
        return _k2_series(alpha, float(n))
    return _k2_closed(
        alpha,
        float(n),
        harmonic_deficit(alpha, n),
        harmonic_deficit(alpha + 1.0, n),
        harmonic_deficit(alpha - 1.0, n),
    )


# --- stencil construction ---------------------------------------------------


def _base_vector(scheme: SchemeId, alpha: float, n: int, c: AlphaConstants) -> np.ndarray:
    w = np.zeros(n + 1)
    if scheme in _L1_FAMILY:
        p = np.arange(n + 2, dtype=float) ** (1.0 - alpha)
        w[0] = 1.0
        w[1:n] = p[2 : n + 1] - 2.0 * p[1:n] + p[0 : n - 1]
        w[n] = p[n - 1] - p[n]
        return w
    if scheme in _MID_FAMILY:
        idx = np.arange(n + 1, dtype=float)
        idx[0] = 1.0  # p[0] is never read
        p = idx**-alpha
        w[0] = 1.0
        w[1 : n - 1] += p[2:n]       # +(j+1)^-a while j <= n-2
        w[2 : n + 1] -= p[1:n]       # -(j-1)^-a once j >= 2
        return w
    p = np.arange(1, n, dtype=float) ** (-1.0 - alpha)
    w[0] = -c.zeta_ap1
    w[1:n] = p
    # last weight is -S_n[1+alpha]; reuse the same powers for bit consistency
    w[n] = c.zeta_ap1 - math.fsum(p.tolist())
    return w


def _apply_head(scheme: SchemeId, w: np.ndarray, c: AlphaConstants) -> None:
    if scheme is SchemeId.L1Second:
        z = c.zeta_am1
        w[0] -= z
        w[1] += 2.0 * z
        w[2] -= z
    elif scheme in (SchemeId.MidRaw, SchemeId.Mid2mAlpha, SchemeId.Mid2):
        w[0] -= 2.0 * c.zeta_a
        w[1] += 2.0 * c.zeta_a
        if scheme is SchemeId.Mid2:
            d = 2.0 * c.zeta_am1 - c.zeta_a
            w[0] += d
            w[1] -= 2.0 * d
            w[2] += d
    elif scheme in (SchemeId.RightRaw, SchemeId.Right2mAlpha):
        w[0] += c.zeta_a
        w[1] -= c.zeta_a
    elif scheme is SchemeId.Right3mAlpha:
        w[0] += 1.5 * c.zeta_a - 0.5 * c.zeta_am1
        w[1] += -2.0 * c.zeta_a + c.zeta_am1
        w[2] += 0.5 * c.zeta_a - 0.5 * c.zeta_am1


def _apply_tail(scheme: SchemeId, w: np.ndarray, alpha: float, n: int) -> None:
    if scheme in (SchemeId.Mid2mAlpha, SchemeId.Mid2):
        wn = midpoint_tail_deficit(alpha, n)
        w[n - 1] -= 2.0 * wn
        w[n] += 2.0 * wn
    elif scheme is SchemeId.Right2mAlpha:
        k1 = k1_coefficient(alpha, n)
        w[n - 1] -= k1
        w[n] += k1
    elif scheme is SchemeId.Right3mAlpha:
        k1 = k1_coefficient(alpha, n)
        k2 = k2_coefficient(alpha, n)
        w[n - 2] += 0.5 * k1 - k2
        w[n - 1] += -2.0 * k1 + 2.0 * k2
        w[n] += 1.5 * k1 - k2


def build_weights(scheme: SchemeId, alpha: float, n: int) -> WeightVector:
    """Construct the full stencil of ``scheme`` at order ``alpha`` on ``n`` steps.

    The construction is strictly base + head stencil + tail stencil with
    overlapping contributions summed, which is what makes the coarse-grid
    (n = 2, 3) vectors come out right without special cases.

    Raises:
        ValueError: for ``n < 2`` or ``alpha`` outside (0, 1).
    """
    if n < 2:
        raise ValueError(f"build_weights needs n >= 2, got {n!r}")
    c = alpha_constants(alpha)
    w = _base_vector(scheme, alpha, n, c)
    _apply_head(scheme, w, c)
    _apply_tail(scheme, w, alpha, n)
    return WeightVector(scheme=scheme, alpha=alpha, n=n, weights=w, norm=scheme_norm(scheme, alpha))


def normalized_lambda(wv: WeightVector) -> np.ndarray:
    """Solver-facing coefficients: ``lam_0 = w_0/C``, ``lam_k = -w_k/C``.

    With these, ``(1/h^alpha)(lam_0 y_m - sum_{k>=1} lam_k y_{m-k})``
    equals the stencil.  The right-sum family's negative norm makes every
    ``lam_k`` positive even though its raw interior weights are positive.
    """
    lam = -wv.weights / wv.norm
    lam[0] = -lam[0]
    return lam


# --- generic per-step pieces used by the relaxation solver ------------------


def _generic_raw_weights(scheme: SchemeId, alpha: float, n_max: int, c: AlphaConstants) -> np.ndarray:
    """Head-corrected interior weights through index ``n_max``, no tails.

    For step counts m >= 7 the true stencil differs from this array only at
    the scheme's tail indices, so a solver can precompute it once and patch
    O(1) entries per step.
    """
    w = np.zeros(n_max + 1)
    if scheme in _L1_FAMILY:
        p = np.arange(n_max + 2, dtype=float) ** (1.0 - alpha)
        w[0] = 1.0
        w[1:] = p[2:] - 2.0 * p[1:-1] + p[:-2]
    elif scheme in _MID_FAMILY:
        idx = np.arange(n_max + 2, dtype=float)
        idx[0] = 1.0  # p[0] is never read
        p = idx**-alpha
        w[0] = 1.0
        if n_max >= 1:
            w[1] = p[2]
        if n_max >= 2:
            w[2:] = p[3:] - p[1:-2]
    else:
        w[0] = -c.zeta_ap1
        w[1:] = np.arange(1, n_max + 1, dtype=float) ** (-1.0 - alpha)
    _apply_head(scheme, w, c)
    return w


def _true_tail_weights(
    scheme: SchemeId,
    alpha: float,
    m: int | np.ndarray,
    s_a: float | None,
    s_a1: float | np.ndarray | None,
    s_am1: float | None,
) -> tuple[tuple[int | np.ndarray, float | np.ndarray], ...]:
    """Raw tail weights ``(index, w)`` of the m-step stencil.

    Deficit values for the current m are supplied by the caller (the solver
    maintains them incrementally); beyond the asymptotic crossover only
    ``s_a1`` is consulted (the right-sum base needs ``S_m[1+alpha]`` at
    every m, the K/W coefficients switch to their series).  ``m`` may also
    be an int array of step counts, all past the crossover, with ``s_a1``
    an array alongside; every index and weight then comes back as an array.
    """
    if isinstance(m, np.ndarray):
        mf, series = m.astype(float), m.min() > _ASYM_N
    else:
        mf, series = float(m), m > _ASYM_N
    if scheme in _L1_FAMILY:
        return ((m, (mf - 1.0) ** (1.0 - alpha) - mf ** (1.0 - alpha)),)
    if scheme in _MID_FAMILY:
        wm1 = -((mf - 2.0) ** -alpha)
        wm = -((mf - 1.0) ** -alpha)
        if scheme in (SchemeId.Mid2mAlpha, SchemeId.Mid2):
            wn = _w_mid_series(alpha, mf) if series else _w_mid_closed(alpha, mf, s_a)
            wm1 -= 2.0 * wn
            wm += 2.0 * wn
        return ((m - 1, wm1), (m, wm))
    base_last = -s_a1
    if scheme in (SchemeId.RightLow, SchemeId.RightRaw):
        return ((m, base_last),)
    k1 = _k1_series(alpha, mf) if series else _k1_closed(alpha, mf, s_a, s_a1)
    if scheme is SchemeId.Right2mAlpha:
        return ((m - 1, (mf - 1.0) ** (-1.0 - alpha) - k1), (m, base_last + k1))
    k2 = _k2_series(alpha, mf) if series else _k2_closed(alpha, mf, s_a, s_a1, s_am1)
    return (
        (m - 2, (mf - 2.0) ** (-1.0 - alpha) + 0.5 * k1 - k2),
        (m - 1, (mf - 1.0) ** (-1.0 - alpha) - 2.0 * k1 + 2.0 * k2),
        (m, base_last + 1.5 * k1 - k2),
    )


# --- leading error coefficients ---------------------------------------------


class ExpansionCoefficients(NamedTuple):
    """Magnitudes of the ``h^(2-alpha)`` error coefficients (C1, C9, C12)."""

    c1: float
    c9: float
    c12: float


def expansion_coefficients(alpha: float) -> ExpansionCoefficients:
    """Leading ``y''(x) h^(2-alpha)`` coefficient magnitudes of the three families.

    C1 belongs to the L1 scheme, C9 to the head-corrected midpoint scheme,
    C12 to the head-corrected right sum.  All three are positive on (0, 1)
    and C12 is the smallest, which is the theoretical reason the right-sum
    family wins at equal order.
    """
    c = alpha_constants(alpha)
    return ExpansionCoefficients(
        c1=-c.zeta_am1 / c.gamma_2ma,
        c9=(2.0 * c.zeta_am1 - c.zeta_a) / (2.0 * c.gamma_1ma),
        c12=(c.zeta_a - c.zeta_am1) / (2.0 * c.gamma_ma),
    )


# --- property validation ------------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    applicable: bool
    passed: bool | None
    detail: str = ""


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of every weight property applicable to one stencil."""

    scheme: SchemeId
    alpha: float
    n: int
    checks: tuple[PropertyCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def failures(self) -> tuple[PropertyCheck, ...]:
        return tuple(c for c in self.checks if c.applicable and not c.passed)


def _chain_ok(v: np.ndarray) -> bool:
    # strictly increasing and strictly negative
    return bool(np.all(np.diff(v) > 0.0)) and bool(np.all(v < 0.0))


def validate_weights(wv: WeightVector) -> PropertyReport:
    """Check the proven sign/monotonicity/bound properties of a stencil.

    Checks are scoped to where the properties actually hold: the uncorrected
    low-order schemes carry no sign claims at all; the right-sum tail
    corrections genuinely break the final monotone link once
    ``n > ~12(1+alpha)`` (the K_1 term lifts the last-but-one weight above
    the interior trend), so for Right2mAlpha the chain stops at index n-2;
    and the order-(3-alpha) scheme's third head weight changes sign near
    alpha ~ 0.32, so only its first two head signs are claimed.  Properties
    that do not apply are reported with ``applicable=False`` rather than
    silently skipped.
    """
    scheme, alpha, n = wv.scheme, wv.alpha, wv.n
    w = wv.weights
    v = w if wv.norm > 0 else -w  # oriented: positive leading weight expected
    checks: list[PropertyCheck] = []

    total = math.fsum(w.tolist())
    scale = float(np.max(np.abs(w)))
    checks.append(
        PropertyCheck(
            "sum_zero",
            True,
            abs(total) <= 1e-10 * scale,
            f"|sum w| = {abs(total):.3e}",
        )
    )

    corrected = scheme not in (SchemeId.MidLow, SchemeId.MidRaw, SchemeId.RightLow, SchemeId.RightRaw)
    if corrected:
        # Exactness on linear data, stated at weight level:
        # sum k*w_k = -n^(1-alpha) * C / Gamma(2-alpha).
        c = alpha_constants(alpha)
        target = -float(n) ** (1.0 - alpha) * wv.norm / c.gamma_2ma
        moment = math.fsum((float(k) * w[k] for k in range(1, n + 1)))
        checks.append(
            PropertyCheck(
                "linear_moment",
                True,
                abs(moment - target) <= 1e-9 * max(abs(target), 1.0),
                f"sum k*w_k = {moment:.15g}, target {target:.15g}",
            )
        )
    else:
        checks.append(PropertyCheck("linear_moment", False, None, "no tail correction; not exact on linears"))

    if scheme in (SchemeId.L1, SchemeId.Mid2mAlpha):
        checks.append(PropertyCheck("head_positive", True, v[0] > 0.0))
        checks.append(PropertyCheck("monotone_chain", True, _chain_ok(v[1:n]), "w_1 < ... < w_{n-1} < 0"))
        checks.append(PropertyCheck("last_negative", True, v[n] < 0.0))
    elif scheme is SchemeId.Right2mAlpha:
        checks.append(PropertyCheck("head_positive", True, v[0] > 0.0))
        checks.append(
            PropertyCheck(
                "monotone_chain",
                True,
                _chain_ok(v[1 : n - 1]) if n >= 3 else True,
                "restricted to w_1..w_{n-2}; the K_1 tail lift breaks the final link for large n",
            )
        )
        checks.append(
            PropertyCheck("tail_negative", True, v[n - 1] < 0.0 and v[n] < 0.0, "w_{n-1} < 0 and w_n < 0")
        )
    elif scheme in (SchemeId.L1Second, SchemeId.Mid2):
        # Alternating head holds only where index 2 is an interior weight:
        # n >= 3 for the L1 variant, n >= 4 for the midpoint variant (its
        # tail reaches index n-1 = 2 at n = 3).
        min_n = 3 if scheme is SchemeId.L1Second else 4
        head_ok = v[0] > 0.0 and v[1] < 0.0
        if n >= min_n:
            checks.append(PropertyCheck("alternating_head", True, head_ok and v[2] > 0.0))
        else:
            checks.append(PropertyCheck("alternating_head", False, None, f"head overlaps tail below n={min_n}"))
            checks.append(PropertyCheck("head_signs", True, head_ok, "w_0 > 0, w_1 < 0"))
        if n >= 4:
            checks.append(
                PropertyCheck("monotone_chain", True, _chain_ok(v[3:n]), "w_3 < ... < w_{n-1} < 0")
            )
        else:
            checks.append(PropertyCheck("monotone_chain", False, None, "no interior indices below n=4"))
        if n >= 3:
            checks.append(PropertyCheck("last_negative", True, v[n] < 0.0))
        else:
            # At n = 2 the head correction lands on index n and can flip its
            # sign (it does for alpha above ~0.65).
            checks.append(PropertyCheck("last_negative", False, None, "head reaches index n at n=2"))
    elif scheme is SchemeId.Right3mAlpha:
        checks.append(PropertyCheck("head_positive", True, v[0] > 0.0))
        checks.append(PropertyCheck("second_negative", True, v[1] < 0.0))
        checks.append(
            PropertyCheck("alternating_head", False, None, "third head weight changes sign near alpha ~ 0.32")
        )
    else:
        checks.append(PropertyCheck("sign_pattern", False, None, "no claims for uncorrected schemes"))

    if scheme is SchemeId.L1:
        # First moment has the exact closed value -n^(1-alpha).
        moment = math.fsum((float(k) * w[k] for k in range(1, n + 1)))
        target = -float(n) ** (1.0 - alpha)
        checks.append(
            PropertyCheck(
                "first_moment",
                True,
                abs(moment - target) <= 1e-10 * abs(target),
                f"sum k*w_k = {moment:.15g}",
            )
        )

    if scheme is SchemeId.Mid2mAlpha:
        if n >= 3:
            bound = -11.0 * alpha / (6.0 * float(n) ** (1.0 + alpha))
            checks.append(
                PropertyCheck(
                    "tail_upper_bound",
                    True,
                    w[n - 1] < bound,
                    f"w_(n-1) = {w[n - 1]:.6g} < {bound:.6g}",
                )
            )
        else:
            checks.append(PropertyCheck("tail_upper_bound", False, None, "tail overlaps head at n=2"))
        lo = -2.0 / (float(n) - 1.0) ** alpha
        hi = -2.0 / float(n) ** alpha
        checks.append(
            PropertyCheck(
                "last_weight_bracket",
                True,
                lo < w[n] < hi,
                f"{lo:.6g} < w_n = {w[n]:.6g} < {hi:.6g}",
            )
        )
        interior = np.arange(2, n - 1)
        interior = interior[interior >= 10]
        if interior.size:
            kk = interior.astype(float)
            dev = np.abs(w[interior] + 2.0 * alpha * kk ** (-1.0 - alpha))
            ok = bool(np.all(dev <= 5.0 * kk ** (-3.0 - alpha)))
            checks.append(PropertyCheck("interior_asymptotic", True, ok, "|w_k + 2a k^(-1-a)| <= 5 k^(-3-a)"))
        else:
            checks.append(PropertyCheck("interior_asymptotic", False, None, "no interior indices k >= 10"))

    return PropertyReport(scheme=scheme, alpha=alpha, n=n, checks=tuple(checks))
