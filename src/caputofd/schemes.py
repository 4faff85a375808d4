"""Weight stencils for finite-difference Caputo derivatives of order alpha in (0, 1).

Every scheme here approximates ``y^(alpha)(x)`` on a uniform grid ``h = x/n``
by a one-sided stencil

    y^(alpha)(x)  ~=  (1/(C h^alpha)) * sum_{k=0}^n w_k y(x - k h),

where ``C`` is a normalization constant fixed by the scheme family.  Three
families are implemented.  Each stencil is one fixed interior vector, the
family's formula at every index with an optional head correction on
indices 0..2, plus up to three tail deltas ``d_j(n)`` added at index
``n - j``.  The deltas turn the interior formula into the true last
weights and carry the tail corrections; on coarse grids the head and tail
overlap and their contributions simply add.  The pointwise builder, the
solver and the stability check all use this one form.

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
K_2 one loses ~n^2 ulps), so past ``n = 50`` all four come from one
Euler-Maclaurin expansion, :func:`caputofd.specfun._em_tail`: with
``S_n[s] = -zeta(s, n)`` it is the Hurwitz zeta tail, and ``K_1``, ``K_2``
are its differences in ``s``.  The branches do not meet at full
precision: against mpmath (40 digits, alpha = 0.1, 0.2, ..., 0.9) the
n = 50 closed forms are off by up to 2.1e-13 (W_n), 4.3e-10 (K_1) and
6.2e-6 (K_2) relative, while the series are within 3.1e-15 from n = 51
to 2^20.  Lower crossovers are an open item (ROADMAP.md, item 7).

``_tail_coefficients`` is the one place that makes this split, and the
one place that picks the source of ``S_n[1+alpha]``: the running
compensated sum up to a step its caller names, the same expansion past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .specfun import AlphaConstants, _em_tail, _exact_sum, alpha_constants

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
    :func:`normalized_lambda` produces the solver-facing form.  The
    weights are kept as a read-only float copy of exactly ``n + 1`` values.
    """

    scheme: SchemeId
    alpha: float
    n: int
    weights: np.ndarray
    norm: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least two intervals, got n={self.n}")
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.n + 1,):
            raise ValueError(
                f"expected {self.n + 1} weights for n={self.n}, got shape {w.shape}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def _deficit_table(s: float, m_max: int, zeta_s: float) -> np.ndarray:
    """Harmonic deficits ``S_m[s]`` at index ``m`` for every ``m <= m_max``.

    The running Neumaier sum of ``k^(-s)``, vectorized: ``cumsum`` adds in
    order, so ``total[m]`` is the plain running sum and ``err[m]`` the
    rounding error of its last addition, exactly as a scalar compensated
    accumulator carries them.  Indices 0 and 1 hold the empty sum.
    ``zeta_s`` is ``zeta(s)``, read from :func:`alpha_constants` by the caller.
    """
    x = np.array([0.0, 0.0] + [float(k) ** -s for k in range(1, m_max)])
    total = np.cumsum(x)
    prev = np.concatenate(([0.0], total[:-1]))
    err = np.where(np.abs(prev) >= np.abs(x), (prev - total) + x, (x - total) + prev)
    return total + np.cumsum(err) - zeta_s


# --- tail coefficients --------------------------------------------------------


def _tail_coefficients(
    alpha: float, ms: np.ndarray, names: tuple[str, ...], table_end: int = _ASYM_N
) -> tuple[np.ndarray, ...]:
    """The named tail coefficients at ascending ``ms >= 2``, and nothing else.

    ``names`` picks from ``"s1"`` (``S_m[1+alpha]``), ``"w"`` (``W_m``),
    ``"k1"`` and ``"k2"``; the arrays come back in the order named.  This
    is the one place that decides how a coefficient is computed:
    ``S_m[1+alpha]`` is the running compensated table for ``m <= table_end``
    and ``-zeta(1+alpha, m)`` from :func:`_em_tail` past it, while ``W``,
    ``K_1`` and ``K_2`` take their closed forms in the table's ``S_m`` for
    ``m <= _ASYM_N`` and :func:`_em_tail` past it.

    The expansion needs ``m > _ASYM_N``, so every m past ``table_end``
    must exceed it; ``solve`` keeps its first leaf past ``_ASYM_N``.
    """
    c = alpha_constants(alpha)
    mf = np.asarray(ms, dtype=float)
    cut = int(np.searchsorted(mf, _ASYM_N, side="right"))
    n, tail = mf[:cut], mf[cut:]

    def deficit(s: float, zeta_s: float, count: int = cut) -> np.ndarray:
        # S_m[s] from the running table at the first `count` m of ms
        if not count:
            return mf[:0]
        return _deficit_table(s, int(mf[count - 1]), zeta_s)[mf[:count].astype(int)]

    out: dict[str, np.ndarray] = {}
    if {"s1", "k1", "k2"} & set(names):
        known = int(np.searchsorted(mf, table_end, side="right"))
        far = mf[known:]
        hurwitz = far**-alpha / alpha + 0.5 * far ** (-1.0 - alpha) + _em_tail(1.0 + alpha, far, 1)
        out["s1"] = s1 = np.concatenate((deficit(1.0 + alpha, c.zeta_ap1, known), -hurwitz))
    if {"w", "k1", "k2"} & set(names):
        s_a = deficit(alpha, c.zeta_a)
    if "w" in names:
        w = s_a - n ** (1.0 - alpha) / (1.0 - alpha)
        out["w"] = np.concatenate((w, -(0.5 * tail**-alpha + _em_tail(alpha, tail, 1))))
    if "k1" in names:
        k1 = n * s1[:cut] - s_a + n ** (1.0 - alpha) / (alpha * (1.0 - alpha))
        out["k1"] = np.concatenate((k1, -_em_tail(1.0 + alpha, tail, 2)))
    if "k2" in names:
        k2 = (
            0.5 * n * n * s1[:cut]
            - n * s_a
            + 0.5 * deficit(alpha - 1.0, c.zeta_am1)
            + n ** (2.0 - alpha) / (alpha * (alpha - 1.0) * (alpha - 2.0))
        )
        out["k2"] = np.concatenate((k2, -_em_tail(1.0 + alpha, tail, 3)))
    return tuple(out[name] for name in names)


# --- stencil construction ---------------------------------------------------


def _interior_weights(scheme: SchemeId, alpha: float, n: int, c: AlphaConstants) -> np.ndarray:
    """Interior formula at every index ``0..n``, plus the head correction.

    Every m-step stencil with ``m <= n`` equals ``w[:m + 1]`` plus the
    :func:`_tail_deltas` of ``m`` at its last indices.
    """
    w = np.zeros(n + 1)
    if scheme in _L1_FAMILY:
        p = np.arange(n + 2, dtype=float) ** (1.0 - alpha)
        w[0] = 1.0
        w[1:] = p[2:] - 2.0 * p[1:-1] + p[:-2]
    elif scheme in _MID_FAMILY:
        idx = np.arange(n + 2, dtype=float)
        idx[0] = 1.0  # p[0] is never read
        p = idx**-alpha
        w[0] = 1.0
        w[1] = p[2]
        w[2:] = p[3:] - p[1:-2]
    else:
        w[0] = -c.zeta_ap1
        w[1:] = np.arange(1, n + 1, dtype=float) ** (-1.0 - alpha)
    _apply_head(scheme, w, c)
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


def _tail_deltas(
    scheme: SchemeId, alpha: float, ms: np.ndarray, table_end: int = _ASYM_N
) -> tuple[np.ndarray, ...]:
    """Tail deltas ``(d_0, d_1, ...)`` of the m-step stencils for ascending ``ms >= 2``.

    ``d_j[i]`` is what the ``ms[i]``-step stencil adds to the interior
    weight at index ``ms[i] - j``: the true last weights minus the interior
    formula, plus the ``W_n`` or ``K_1``/``K_2`` correction.  The
    coefficients come from :func:`_tail_coefficients`, which owns both
    crossovers; ``table_end`` is the last m whose ``S_m[1+alpha]`` comes
    from the running compensated table (right-sum family only).
    """
    mf = ms.astype(float)
    if scheme in _L1_FAMILY:
        return (mf ** (1.0 - alpha) - (mf + 1.0) ** (1.0 - alpha),)
    if scheme in _MID_FAMILY:
        d0 = -((mf + 1.0) ** -alpha)
        d1 = -(mf**-alpha)
        if scheme in (SchemeId.Mid2mAlpha, SchemeId.Mid2):
            (wn,) = _tail_coefficients(alpha, mf, ("w",))
            d0 += 2.0 * wn
            d1 -= 2.0 * wn
        return d0, d1
    names = {SchemeId.Right2mAlpha: ("s1", "k1"), SchemeId.Right3mAlpha: ("s1", "k1", "k2")}
    s1, *k = _tail_coefficients(alpha, mf, names.get(scheme, ("s1",)), table_end)
    d0 = -(s1 + mf ** (-1.0 - alpha))
    if scheme is SchemeId.Right2mAlpha:
        return d0 + k[0], -k[0]
    if scheme is SchemeId.Right3mAlpha:
        k1, k2 = k
        return d0 + 1.5 * k1 - k2, -2.0 * k1 + 2.0 * k2, 0.5 * k1 - k2
    return (d0,)


def build_weights(scheme: SchemeId, alpha: float, n: int) -> WeightVector:
    """Construct the full stencil of ``scheme`` at order ``alpha`` on ``n`` steps.

    The stencil is the head-corrected interior vector plus the tail deltas
    at indices ``n, n-1, n-2``; where head and tail overlap on coarse grids
    (n = 2, 3) the contributions simply add.

    Raises:
        ValueError: for ``n < 2`` or ``alpha`` outside (0, 1).
    """
    if n < 2:
        raise ValueError(f"build_weights needs n >= 2, got {n!r}")
    c = alpha_constants(alpha)
    w = _interior_weights(scheme, alpha, n, c)
    for j, d in enumerate(_tail_deltas(scheme, alpha, np.array([n]))):
        w[n - j] += d[0]
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

    total = _exact_sum(w)
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
        moment = _exact_sum(np.arange(1, n + 1) * w[1:])
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
