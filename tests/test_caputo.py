"""Tests for exact Caputo derivatives, stencil application, and the oracles."""

import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from caputofd import (
    QuadratureError,
    SampledPath,
    SchemeId,
    apply_stencil,
    build_weights,
    caputo_quadrature,
    exact_caputo_cos2pix,
    exact_caputo_exp,
    exact_caputo_power,
    fourth_order_eval,
    function_catalog,
    gamma,
    mittag_leffler_1,
    sample_path,
)
from caputofd import caputo

CATALOG_NAMES = {
    "t",
    "t2",
    "t3",
    "t4",
    "exp",
    "cos2pi",
    "arctan",
    "log1p",
    "zeta_shift2",
}


def test_catalog_contents():
    cat = function_catalog()
    assert set(cat) == CATALOG_NAMES
    for f in cat.values():
        assert len(f.derivatives) == 4
    assert cat["zeta_shift2"].exact_caputo is None


def test_catalog_derivative_chain():
    """Each stored derivative matches a central difference of the previous
    order; this is the smoke-level consistency check for the catalog."""
    h = 1e-5
    for f in function_catalog().values():
        chain = [lambda t, f=f: float(np.asarray(f.eval(t), dtype=float))]
        chain += [(lambda g: lambda t: float(g(t)))(d) for d in f.derivatives]
        for level in range(1, 5):
            for t in (0.15, 0.6, 1.1):
                fd = (chain[level - 1](t + h) - chain[level - 1](t - h)) / (2.0 * h)
                assert abs(fd - chain[level](t)) < 1e-6, (f.name, level, t)


def test_catalog_zero_data():
    """The derived y(0) and y'(0) against values known independently of the catalog."""
    mpmath = pytest.importorskip("mpmath")
    exact = {
        "t": (0.0, 1.0),
        "t2": (0.0, 0.0),
        "t3": (0.0, 0.0),
        "t4": (0.0, 0.0),
        "exp": (1.0, 1.0),
        "cos2pi": (1.0, 0.0),
        "arctan": (0.0, 1.0),
        "log1p": (0.0, 1.0),
    }
    cat = function_catalog()
    for name, (y0, d1) in exact.items():
        assert (cat[name].value_at_zero, cat[name].first_deriv_at_zero) == (y0, d1), name
    with mpmath.workdps(30):
        zeta2, dzeta2 = float(mpmath.zeta(2)), float(mpmath.zeta(2, 1, 1))
    f = cat["zeta_shift2"]
    assert f.value_at_zero == pytest.approx(zeta2, rel=1e-15, abs=0.0)
    assert f.first_deriv_at_zero == pytest.approx(dzeta2, rel=1e-15, abs=0.0)


def test_catalog_eval_keeps_array_shape():
    """Every ``eval`` takes a 2-D array and gives its flat values, reshaped, byte for byte."""
    ts = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    for f in function_catalog().values():
        got = np.asarray(f.eval(ts), dtype=float)
        flat = np.asarray(f.eval(ts.ravel()), dtype=float)
        assert got.shape == ts.shape, f.name
        assert got.tobytes() == flat.reshape(ts.shape).tobytes(), f.name


def _rule_derivative(name: str, k: int, t: Fraction) -> Fraction:
    """The exact k-th derivative of t^p or of log(1 + t) at the rational ``t``."""
    if name == "log1p":
        return Fraction((-1) ** (k + 1) * math.factorial(k - 1)) / (1 + t) ** k
    p = 1 if name == "t" else int(name[1:])
    return math.perm(p, k) * t ** (p - k) if k <= p else Fraction(0)


# The worst readings at these 301 points, in ulps of the exact value: 1.18
# for the powers (t3's y' and t4's y''; exact zeros come out exactly zero)
# and 4.06 for the fourth derivative of log1p, which carries the rounding of
# 1 + t four times.
@pytest.mark.parametrize(
    "name, bound", [("t", 1.2), ("t2", 1.2), ("t3", 1.2), ("t4", 1.2), ("log1p", 4.1)]
)
def test_catalog_derivatives_against_exact_rationals(name, bound):
    f = function_catalog()[name]
    for k, derivative in enumerate(f.derivatives, start=1):
        for t in np.linspace(0.0, 3.0, 301).tolist():
            exact = _rule_derivative(name, k, Fraction(t))
            got = float(derivative(t))
            if exact == 0:
                assert got == 0.0, (name, k, t)
            else:
                ulp = Fraction(math.ulp(float(exact)))
                assert abs(Fraction(got) - exact) <= bound * ulp, (name, k, t)


# mpmath dps=30
def test_zeta_shift_values():
    f = function_catalog()["zeta_shift2"]
    assert float(f.eval(0.0)) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert float(f.eval(1.0)) == pytest.approx(1.2020569031595942, rel=1e-14)
    assert f.derivatives[0](0.0) == pytest.approx(-0.9375482543158438, rel=1e-13)
    assert f.derivatives[1](1.5) == pytest.approx(0.11830650424820012, rel=1e-12)
    assert f.derivatives[3](0.5) == pytest.approx(3.1615875358483434, rel=1e-12)
    vec = f.eval(np.array([0.0, 1.0]))
    assert vec == pytest.approx([math.pi**2 / 6.0, 1.2020569031595942])
    # zeta(t + 2) over the catalog's range; measured within 4.5e-16.
    ts, expected = zip(*ZETA_SHIFT_POINTS)
    assert f.eval(np.array(ts)) == pytest.approx(expected, rel=1e-15, abs=0.0)
    for t, value in ZETA_SHIFT_POINTS:
        assert f.eval(t) == pytest.approx(value, rel=1e-15, abs=0.0)


# (t, zeta(t + 2)), mpmath dps=30
ZETA_SHIFT_POINTS = [
    (0.0, 1.6449340668482264),
    (0.25, 1.4602118661586485),
    (0.5, 1.341487257250917),
    (0.8, 1.2470314223172532),
    (1.1, 1.1833836521119063),
    (1.5, 1.1267338673170566),
    (1.9, 1.0895521846703213),
    (2.25, 1.0669541907112146),
    (2.6, 1.0505173825665735),
    (3.0, 1.03692775514337),
]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_zeta_shift_derivatives_against_mpmath(m):
    """The m-th derivative of zeta(t + 2) on [0, 3] is within the bound
    stated above ``caputo._zeta_shift_derivative``."""
    mpmath = pytest.importorskip("mpmath")
    ts = np.linspace(0.0, 3.0, 61).tolist()
    with mpmath.workdps(30):
        exact = [float(mpmath.zeta(mpmath.mpf(t) + 2, 1, m)) for t in ts]
    got = [caputo._zeta_shift_derivative(t, m) for t in ts]
    assert got == pytest.approx(exact, rel=1.5e-15, abs=0.0)


def test_exact_power():
    assert exact_caputo_power(2.0, 0.5, 1.0) == pytest.approx(
        1.5045055561273502, rel=1e-13
    )
    # p = 1 reduces to x^(1-alpha)/Gamma(2-alpha)
    for a, x in ((0.3, 0.7), (0.6, 1.4)):
        assert exact_caputo_power(1.0, a, x) == pytest.approx(
            x ** (1.0 - a) / gamma(2.0 - a), rel=1e-13
        )
    with pytest.raises(ValueError):
        exact_caputo_power(0.5, 0.5, 1.0)


def test_exact_exp():
    assert exact_caputo_exp(0.5, 0.0) == 0.0
    assert exact_caputo_exp(0.5, 1.0) == pytest.approx(2.290698252303238, rel=1e-12)


def test_exact_cos():
    assert exact_caputo_cos2pix(0.5, 0.0) == 0.0
    # mpmath series references
    assert exact_caputo_cos2pix(0.5, 0.75) == pytest.approx(
        1.138114547921291, rel=1e-12
    )
    assert exact_caputo_cos2pix(0.25, 1.0) == pytest.approx(
        0.6522930558642273, rel=1e-12
    )
    assert exact_caputo_cos2pix(0.6, 1.0) == pytest.approx(
        1.3290290870091586, rel=1e-12
    )
    with pytest.raises(ValueError):
        exact_caputo_cos2pix(0.5, 2.5)


@pytest.mark.parametrize("a,x", [(0.25, 0.5), (0.5, 1.0), (0.75, 1.5), (0.4, 2.0)])
def test_cos_series_matches_complex_form(a, x):
    """The real series equals Re(2*pi*i*x^(1-a)*E_{1,2-a}(2*pi*i*x)).

    E comes from mpmath at 40 digits: at x = 2 the partial sums of
    mittag_leffler_1's series peak at 2.9e4 times the value, past its cap.
    """
    mpmath = pytest.importorskip("mpmath")
    lam = 2.0j * math.pi
    with mpmath.workdps(40):
        ml = complex(mpmath.hyp1f1(1, 2.0 - a, lam * x) / mpmath.gamma(2.0 - a))
    complex_form = (lam * x ** (1.0 - a) * ml).real
    assert exact_caputo_cos2pix(a, x) == pytest.approx(complex_form, abs=1e-10)


#: 4097 points of [0, 1], both ends included.
UNIT_GRID = np.linspace(0.0, 1.0, 4097)

EXACT_DERIVATIVES = {
    "power1": lambda a, x: exact_caputo_power(1, a, x),
    "power2.5": lambda a, x: exact_caputo_power(2.5, a, x),
    "exp": exact_caputo_exp,
    "cos2pix": exact_caputo_cos2pix,
}


@pytest.mark.parametrize("name", sorted(EXACT_DERIVATIVES))
def test_exact_derivative_array_matches_scalar(name):
    """A grid of points gives the scalar values bit for bit."""
    fn = EXACT_DERIVATIVES[name]
    got = fn(0.45, UNIT_GRID)
    assert got.shape == UNIT_GRID.shape
    assert np.array_equal(got, [fn(0.45, x) for x in UNIT_GRID.tolist()])
    assert isinstance(fn(0.45, 0.5), float)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_exact_derivative_powers_through_libm(alpha):
    """Powers are numpy's, taken on the whole array."""
    for p in (1, 2.5, 4):
        coef = math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha)
        expected = coef * UNIT_GRID ** (p - alpha)
        assert np.array_equal(exact_caputo_power(p, alpha, UNIT_GRID), expected)
    scale = UNIT_GRID ** (1.0 - alpha)
    expected = scale * mittag_leffler_1(2.0 - alpha, UNIT_GRID).real
    assert np.array_equal(exact_caputo_exp(alpha, UNIT_GRID), expected)


def _scalar_cos_series(alpha, x, power):
    """The term loop of exact_caputo_cos2pix for one point, in Python floats.

    ``power`` is ``x ** (2 - alpha)``, taken by the caller with numpy like
    the function under test does."""
    if x == 0.0:
        return 0.0
    ratio = -4.0 * math.pi**2 * (x * x)
    term = -4.0 * math.pi**2 * power / math.gamma(3.0 - alpha)
    total, comp, scale = term, 0.0, abs(term)
    for k in range(1, 300):
        term *= ratio / ((2.0 * k + 1.0 - alpha) * (2.0 * k + 2.0 - alpha))
        big = total + term
        comp += (total - big) + term if abs(total) >= abs(term) else (term - big) + total
        total = big
        scale = max(scale, abs(term))
        if abs(term) <= 1e-16 * scale:
            break
    return total + comp


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_cos_series_array_matches_scalar_series(alpha):
    """The whole domain [0, 2] gives the Python-float series bit for bit, in
    ascending, descending and shuffled order; the shuffle puts finished
    points inside the live suffix.  At 40961 points the kernel's traced
    peak stays within 9 times the points' bytes."""
    grid = np.linspace(0.0, 2.0, 4097)
    powers = grid ** (2.0 - alpha)
    expected = np.array([
        _scalar_cos_series(alpha, x, p) for x, p in zip(grid.tolist(), powers.tolist())
    ])
    assert np.array_equal(exact_caputo_cos2pix(alpha, grid), expected)
    assert np.array_equal(exact_caputo_cos2pix(alpha, grid[::-1]), expected[::-1])
    shuffle = np.random.default_rng(20161).permutation(grid.size)
    assert np.array_equal(exact_caputo_cos2pix(alpha, grid[shuffle]), expected[shuffle])

    points = np.linspace(0.0, 2.0, 40961)
    tracemalloc.start()
    try:
        exact_caputo_cos2pix(alpha, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * points.nbytes, peak / points.nbytes


#: Worst absolute error per interval of the series with its terms added
#: exactly (``math.fsum`` per point), measured by the test below on its points.
COS_FSUM_WORST = {(0.0, 1.0): 5.1514348342607263e-14, (1.0, 2.0): 1.7712054045659897e-11}


def test_cos_series_against_mpmath():
    """Within 10% of an exact sum of the terms, against
    Re(2 pi i x^(1-a) 1F1(1; 2-a; 2 pi i x) / Gamma(2-a)) at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    for (lo, hi), fsum_worst in COS_FSUM_WORST.items():
        xs = np.linspace(lo, hi, 201)[1:] if lo == 0.0 else np.linspace(lo, hi, 201)
        worst = 0.0
        for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            with mpmath.workdps(30):
                a, lam = mpmath.mpf(alpha), 2j * mpmath.pi
                exact = [
                    float(mpmath.re(
                        lam * mpmath.mpf(x) ** (1 - a)
                        * mpmath.hyp1f1(1, 2 - a, lam * x) / mpmath.gamma(2 - a)
                    ))
                    for x in xs.tolist()
                ]
            worst = max(worst, np.max(np.abs(exact_caputo_cos2pix(alpha, xs) - exact)))
        assert worst <= 1.1 * fsum_worst, (lo, hi, worst)


#: 400 points of (0, 2] and the orders of the closed-form oracles below.
ORACLE_GRID = np.linspace(0.0, 2.0, 401)[1:]
ORACLE_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_exact_caputo_power_against_mpmath(p):
    """Gamma(p+1)/Gamma(p+1-alpha) x^(p-alpha) at 40 digits.  Measured worst
    1.78e-15 (p = 4); the bound leaves one more ulp for another SIMD target."""
    mpmath = pytest.importorskip("mpmath")
    for alpha in ORACLE_ALPHAS:
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            coef = mpmath.gamma(p + 1) / mpmath.gamma(p + 1 - a)
            exact = [float(coef * mpmath.mpf(x) ** (p - a)) for x in ORACLE_GRID.tolist()]
        got = exact_caputo_power(p, alpha, ORACLE_GRID)
        assert got == pytest.approx(exact, rel=2e-15, abs=0), alpha


def test_exact_caputo_exp_against_mpmath():
    """x^(1-alpha) 1F1(1; 2-alpha; x) / Gamma(2-alpha) at 40 digits.  Measured
    worst 1.08e-15; the bound leaves one more ulp for another SIMD target."""
    mpmath = pytest.importorskip("mpmath")
    for alpha in ORACLE_ALPHAS:
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            exact = [
                float(mpmath.mpf(x) ** (1 - a) * mpmath.hyp1f1(1, 2 - a, x) / mpmath.gamma(2 - a))
                for x in ORACLE_GRID.tolist()
            ]
        assert exact_caputo_exp(alpha, ORACLE_GRID) == pytest.approx(exact, rel=1.3e-15, abs=0)


@pytest.mark.parametrize(
    "name,bad",
    [
        ("power1", -0.25),
        ("power1", math.nan),
        ("exp", -0.25),
        ("exp", math.nan),
        ("cos2pix", -0.25),
        ("cos2pix", 2.25),
        ("cos2pix", math.nan),
    ],
)
def test_exact_derivative_array_validation(name, bad):
    """One point out of the domain raises the scalar call's error."""
    fn = EXACT_DERIVATIVES[name]
    with pytest.raises(ValueError) as scalar:
        fn(0.5, bad)
    with pytest.raises(ValueError) as array:
        fn(0.5, np.array([0.5, bad, 0.75]))
    assert str(array.value) == str(scalar.value)
    # Deep in a long array, ahead of a later bad point.
    xs = np.full(3000, 0.5)
    xs[2500], xs[2900] = bad, 3.0 * bad
    with pytest.raises(ValueError) as array:
        fn(0.5, xs)
    assert str(array.value) == str(scalar.value)


def test_exact_derivative_keyword_arguments():
    """Arguments bind by name as in a plain call, for scalars and arrays; a
    missing, doubled or extra argument raises ``TypeError``."""
    assert exact_caputo_power(1.0, 0.5, x=2.0) == exact_caputo_power(1.0, 0.5, 2.0)
    assert np.array_equal(
        exact_caputo_power(p=2.0, alpha=0.5, x=UNIT_GRID), exact_caputo_power(2.0, 0.5, UNIT_GRID)
    )
    assert exact_caputo_exp(alpha=0.3, x=0.7) == exact_caputo_exp(0.3, 0.7)
    assert np.array_equal(
        exact_caputo_cos2pix(0.3, x=UNIT_GRID), exact_caputo_cos2pix(0.3, UNIT_GRID)
    )
    for bad in (lambda: exact_caputo_power(1.0, 0.5), lambda: exact_caputo_exp(alpha=0.3),
                lambda: exact_caputo_exp(0.3, 0.7, x=0.7), lambda: exact_caputo_exp(0.3, 0.7, 0.7)):
        with pytest.raises(TypeError):
            bad()


def test_sample_path_layout():
    f = function_catalog()["t2"]
    p = sample_path(f, 1.0, 4)
    np.testing.assert_allclose(p.values, [1.0, 0.5625, 0.25, 0.0625, 0.0])
    assert p.h == 0.25
    assert not p.values.flags.writeable


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        SampledPath(x=1.0, n=4, values=np.zeros(4))
    with pytest.raises(ValueError):
        SampledPath(x=0.0, n=4, values=np.zeros(5))
    with pytest.raises(ValueError):
        SampledPath(x=1.0, n=1, values=np.zeros(2))


def test_apply_stencil_annihilates_constants():
    path = SampledPath(x=1.0, n=12, values=np.full(13, 3.7))
    for scheme in SchemeId:
        wv = build_weights(scheme, 0.45, 12)
        h = path.h
        assert abs(apply_stencil(wv, path)) <= 1e-10 * 3.7 / h**0.45


def test_apply_stencil_exact_on_linear():
    wv = build_weights(SchemeId.Mid2mAlpha, 0.5, 16)
    path = sample_path(function_catalog()["t"], 1.0, 16)
    exact = exact_caputo_power(1.0, 0.5, 1.0)
    assert apply_stencil(wv, path) == pytest.approx(exact, rel=1e-10)


def test_apply_stencil_linearity():
    rng = np.random.default_rng(42)
    wv = build_weights(SchemeId.Right2mAlpha, 0.3, 20)
    u = rng.standard_normal(21)
    v = rng.standard_normal(21)
    pa = SampledPath(x=1.0, n=20, values=u)
    pb = SampledPath(x=1.0, n=20, values=v)
    combo = SampledPath(x=1.0, n=20, values=2.5 * u - 1.25 * v)
    lhs = apply_stencil(wv, combo)
    rhs = 2.5 * apply_stencil(wv, pa) - 1.25 * apply_stencil(wv, pb)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_apply_stencil_length_mismatch():
    wv = build_weights(SchemeId.L1, 0.5, 8)
    path = SampledPath(x=1.0, n=10, values=np.zeros(11))
    with pytest.raises(ValueError):
        apply_stencil(wv, path)


def _fsum_of_list(a):
    """The summation recipe ``_exact_sum`` replaced."""
    return math.fsum(np.asarray(a).tolist())


@pytest.mark.parametrize("n", [2, 3, 4, 64, 1025, 65536])
def test_stencil_sums_are_the_fsum_recipes(n):
    """apply_stencil's value is the old ``math.fsum(....tolist())`` result
    bit for bit."""
    cat = function_catalog()
    paths = [sample_path(cat[name], 1.0, n) for name in ("exp", "cos2pi", "arctan", "log1p")]
    for scheme in SchemeId:
        for alpha in (0.2, 0.5, 0.8):
            wv = build_weights(scheme, alpha, n)
            for path in paths:
                old = math.fsum((wv.weights * path.values).tolist()) / (wv.norm * path.h**alpha)
                assert float.hex(apply_stencil(wv, path)) == float.hex(old)


def test_fourth_order_sum_is_the_fsum_recipe(monkeypatch):
    cat = function_catalog()
    points = [("arctan", 1.0), ("log1p", 2.0), ("zeta_shift2", 3.0)]
    for (name, x), alpha in itertools.product(points, (0.2, 0.5, 0.8)):
        for n in (round(x / 0.05) * 2**k for k in range(5)):
            new = fourth_order_eval(cat[name], alpha, x, n)
            with monkeypatch.context() as m:
                m.setattr(caputo, "_exact_sum", _fsum_of_list)
                old = fourth_order_eval(cat[name], alpha, x, n)
            assert float.hex(new) == float.hex(old)


def test_l1_order_on_quartic():
    """Error ratios approach 2^(2-alpha); at alpha=0.25 the pure-h^2 error
    term decays only h^0.25 faster, so the observed order creeps up slowly
    (1.672 at n=64->128, 1.710 at n=512->1024)."""
    a = 0.25
    f = function_catalog()["t4"]
    exact = exact_caputo_power(4.0, a, 1.0)
    errs = []
    for n in (64, 128, 512, 1024):
        wv = build_weights(SchemeId.L1, a, n)
        errs.append(abs(apply_stencil(wv, sample_path(f, 1.0, n)) - exact))
    early = math.log2(errs[0] / errs[1])
    late = math.log2(errs[2] / errs[3])
    assert early == pytest.approx(2.0 - a, abs=0.1)
    assert early < late < 2.0 - a


def test_fourth_order_ladder_on_arctan():
    f = function_catalog()["arctan"]
    ref = f.exact_caputo(0.4, 1.0)
    errs = [
        abs(fourth_order_eval(f, 0.4, 1.0, round(1.0 / h)) - ref)
        for h in (0.05, 0.025, 0.0125)
    ]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert orders == pytest.approx([4.0, 4.0], abs=0.02)


def test_fourth_order_on_linear():
    """No closed cancellation for y=t, but the O(h^4) remainder shrinks on
    schedule through the derivative corrections."""
    f = function_catalog()["t"]
    exact = exact_caputo_power(1.0, 0.4, 1.0)
    e8 = abs(fourth_order_eval(f, 0.4, 1.0, 8) - exact)
    e64 = abs(fourth_order_eval(f, 0.4, 1.0, 64) - exact)
    assert math.log2(e8 / e64) / 3.0 == pytest.approx(4.0, abs=0.05)


def test_fourth_order_coefficient_on_cubic():
    f = function_catalog()["t3"]
    ref = exact_caputo_power(3.0, 0.4, 1.0)
    cs = [
        abs(fourth_order_eval(f, 0.4, 1.0, n) - ref) * float(n) ** 4
        for n in (32, 64, 128)
    ]
    assert cs[1] == pytest.approx(cs[0], rel=0.01)
    assert cs[2] == pytest.approx(cs[1], rel=0.01)


def test_fourth_order_validation():
    f = function_catalog()["exp"]
    with pytest.raises(ValueError):
        fourth_order_eval(f, 0.4, 1.0, 3)
    with pytest.raises(ValueError):
        fourth_order_eval(f, 0.4, 0.0, 8)


def test_quadrature_trivial_cases():
    assert caputo_quadrature(lambda t: 0.0, 0.5, 1.0) == 0.0
    for a, x in ((0.3, 0.8), (0.7, 1.6)):
        got = caputo_quadrature(lambda t: 1.0, a, x, 1e-12)
        assert got == pytest.approx(exact_caputo_power(1.0, a, x), abs=1e-11)


def test_quadrature_matches_exp():
    got = caputo_quadrature(math.exp, 0.5, 1.0, 1e-12)
    assert got == pytest.approx(exact_caputo_exp(0.5, 1.0), abs=1e-11)


def test_import_loads_no_quadrature_stack():
    """``import caputofd`` loads no scipy; the first short ``solve`` loads ``scipy.linalg`` alone.

    ``caputo_quadrature`` loads no scipy either, and gives ``E_{1,3/2}(1)``,
    the Caputo derivative of order 1/2 of ``e^x`` at 1 (mpmath, 40 digits).
    A long ``solve`` (n = 4096) has no march and loads no scipy.
    ``scipy.linalg`` loads with the first short one, and scipy's quadrature,
    special functions and FFT stay unloaded.  A ``caputofd weights`` call,
    which solves nothing, and a fourth-order ``caputofd caputo`` ladder of
    ``zeta_shift2``, whose reference is the quadrature, load no scipy.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import math, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import caputofd\n"
        "print(scipy_modules())\n"
        "print(repr(caputofd.caputo_quadrature(math.exp, 0.5, 1.0, 1e-12)))\n"
        "print(scipy_modules())\n"
        "caputofd.solve(caputofd.equation_catalog(0.5)[1], caputofd.SchemeId.L1, 4096)\n"
        "print(scipy_modules())\n"
        "caputofd.solve(caputofd.equation_catalog(0.5)[1], caputofd.SchemeId.L1, 8)\n"
        "print('scipy.linalg' in sys.modules)\n"
        "print([m for m in ('scipy.integrate', 'scipy.special', 'scipy.fft') if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0] == "[]"
    assert float(out[1]) == pytest.approx(2.290698252303238, rel=1e-12)
    assert out[2] == "[]"
    assert out[3] == "[]"
    assert out[4] == "True"
    assert out[5] == "[]"

    for argv in (
        ["weights", "--scheme", "l1", "--alpha", "0.5", "--n", "2"],
        ["caputo", "--function", "zeta_shift2", "--fourth-order",
         "--alpha", "0.4", "--x", "3", "--h", "0.025", "--levels", "2"],
    ):
        cli = (
            "import contextlib, io, sys\n"
            "from caputofd.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = run({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", cli], env=env, capture_output=True, text=True, check=True
        ).stdout.splitlines()
        assert out[-1] == "0 []", argv


def test_quadrature_validation():
    with pytest.raises(ValueError):
        caputo_quadrature(lambda t: 1.0, 0.5, 1.0, 1e-13)
    with pytest.raises(QuadratureError) as exc:
        caputo_quadrature(lambda t: math.cos(3e5 * t * t), 0.5, 1.0)
    assert exc.value.estimate > 0.0


def test_quadrature_agrees_with_closed_forms():
    """Oracle agreement across the catalog at randomized (alpha, x)."""
    rng = np.random.default_rng(7)
    cat = function_catalog()
    for name in ("t", "t2", "t3", "t4", "exp", "cos2pi", "arctan", "log1p"):
        f = cat[name]
        for _ in range(3):
            a = float(rng.uniform(0.1, 0.9))
            x = float(rng.uniform(0.2, 2.0 if name == "cos2pi" else 2.5))
            closed = f.exact_caputo(a, x)
            quad_val = caputo_quadrature(f.derivatives[0], a, x, 1e-12)
            assert quad_val == pytest.approx(closed, rel=1e-8, abs=1e-10), (
                name,
                a,
                x,
            )


def _caputo_by_mpmath(fprime, alpha, x, breaks=()):
    """``D^alpha`` at ``x`` from mpmath at 30 digits, for a ``fprime`` taking mpf.

    With ``t = x - x v`` and ``v = w^(1/(1-alpha))`` the definition becomes
    ``x^(1-alpha) / Gamma(2-alpha) * integral_0^1 fprime(x - x w^(1/(1-alpha))) dw``,
    which has no singularity.  ``breaks`` are the ``t`` where ``fprime`` is
    not smooth; the integral is split at their ``w``.
    """
    import mpmath

    with mpmath.workdps(30):
        a, x = mpmath.mpf(alpha), mpmath.mpf(x)
        cuts = sorted(((x - mpmath.mpf(t)) / x) ** (1 - a) for t in breaks)
        integral = mpmath.quad(lambda w: fprime(x - x * w ** (1 / (1 - a))), [0, *cuts, 1])
        return float(x ** (1 - a) / mpmath.gamma(2 - a) * integral)


def test_quadrature_against_mpmath():
    """The table-8 oracle: the Caputo derivative of ``zeta(t + 2)``.

    Worst relative error 9.2e-16 (alpha 0.5, x 3) over the grid below.
    """
    mpmath = pytest.importorskip("mpmath")
    fprime = function_catalog()["zeta_shift2"].derivatives[0]
    worst = 0.0
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for x in (0.5, 1.0, 2.0, 3.0):
            exact = _caputo_by_mpmath(lambda t: mpmath.zeta(t + 2, 1, 1), alpha, x)
            got = caputo_quadrature(fprime, alpha, x, 1e-12)
            worst = max(worst, abs(got - exact) / abs(exact))
    assert worst <= 1.1 * 9.2e-16


@pytest.mark.parametrize(
    "fprime, mp_fprime, breaks",
    [
        pytest.param(lambda t: abs(t - 0.5), lambda t: abs(t - 0.5), (0.5,), id="kink"),
        pytest.param(lambda t: float(t >= 0.3), lambda t: 1 if t >= 0.3 else 0, (0.3,), id="step"),
        pytest.param(
            lambda t: math.sqrt(abs(t - 0.7)), lambda t: abs(t - 0.7) ** 0.5, (0.7,), id="cusp"
        ),
    ],
)
def test_quadrature_bisects_toward_rough_points(fprime, mp_fprime, breaks):
    """Non-smooth derivatives inside ``(0, x)`` still meet 1e-12.

    At alpha 0.5 and x 1 the relative errors read 8.1e-16 (kink), 5.6e-13
    (step) and 3.2e-13 (cusp).  The kink's ``v = 0.5`` is the first
    bisection's edge; the step's ``v = 0.7`` and the cusp's ``v = 0.3`` are
    no panel's edge, so only bisection toward them meets the tolerance.
    """
    pytest.importorskip("mpmath")
    exact = _caputo_by_mpmath(mp_fprime, 0.5, 1.0, breaks)
    got = caputo_quadrature(fprime, 0.5, 1.0, 1e-12)
    assert abs(got - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_quadrature_non_finite_integrand_raises(value):
    """A non-finite derivative raises at once, before any bisection."""
    calls = []

    def fprime(t):
        calls.append(t)
        return value if t < 0.5 else 1.0

    with pytest.raises(QuadratureError):
        caputo_quadrature(fprime, 0.5, 1.0)
    assert len(calls) == 40
