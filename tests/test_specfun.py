"""Tests for the special functions.

Reference values were generated with mpmath at 40 significant digits and
pasted here verbatim, so these tests pin the accuracy of the float64
implementations rather than their self-consistency.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from caputofd import (
    NonConvergenceError,
    alpha_constants,
    gamma,
    mittag_leffler_1,
    zeta,
)
from caputofd.specfun import _exact_sum

# mpmath.zeta, dps=40
ZETA_TABLE = {
    0.5: -1.4603545088095868,
    -0.5: -0.20788622497735457,
    0.25: -0.8132784052618917,
    0.75: -3.4412853869452227,
    1.5: 2.612375348685488,
    -1.5: -0.025485201889833036,
    -2.5: 0.008516928777850331,
    -3.5: 0.004441011335479432,
    -0.6: -0.17459571193801338,
    1.4: 3.105547277977581,
    -0.1: -0.41722804076736686,
    0.4: -1.1347977838669816,
    -1.6: -0.01844898667896369,
    -2.6: 0.008982462378839658,
    0.05: -0.548586548573046,
    0.95: -19.42643719693078,
    -0.95: -0.09192531511824795,
    1.05: 20.580844302036986,
    1.95: 1.694429662231051,
}

# mpmath.gamma, dps=40
GAMMA_TABLE = {
    0.5: 1.772453850905516,
    1.5: 0.886226925452758,
    2.5: 1.329340388179137,
    -0.5: -3.544907701811032,
    -0.25: -4.901666809860711,
    -0.75: -4.834146544295877,
    0.6: 1.489192248812817,
    1.4: 0.8872638175030753,
    2.4: 1.2421693445043054,
    -0.4: -3.7229806220320425,
    4.6: 13.381285870932443,
    4.75: 16.58620653922594,
}


@pytest.mark.parametrize("s", sorted(ZETA_TABLE))
def test_zeta_spot_values(s):
    assert zeta(s) == pytest.approx(ZETA_TABLE[s], rel=1e-12)


def test_zeta_special_points():
    assert zeta(0.0) == -0.5
    assert zeta(-1.0) == pytest.approx(-1.0 / 12.0, rel=1e-13)
    assert zeta(-3.0) == pytest.approx(1.0 / 120.0, rel=1e-12)
    # trivial zero; the reflection formula leaves a ~1 ulp residue of sin(pi)
    assert abs(zeta(-2.0)) < 1e-15


@pytest.mark.parametrize("s", [1.0, 2.0, 2.5, -4.0, -7.3])
def test_zeta_domain(s):
    with pytest.raises(ValueError):
        zeta(s)


def test_zeta_against_mpmath_sweep():
    """Within 1.1 times the docstring's measured worst on 2001 points: 2.3e-15
    relative on (-1.9, 2), 8.7e-18 absolute on (-4, -1.9] by the trivial zeros."""
    mpmath = pytest.importorskip("mpmath")
    grid = np.linspace(-4.0, 2.0, 2003)[1:-1]
    got = np.array([zeta(s) for s in grid.tolist()])
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.zeta(s)) for s in grid.tolist()])
    near = grid > -1.9
    assert got[near] == pytest.approx(exact[near], rel=1.1 * 2.28e-15, abs=0.0)
    assert np.abs(got[~near] - exact[~near]).max() <= 1.1 * 8.7e-18


@pytest.mark.parametrize("x", sorted(GAMMA_TABLE))
def test_gamma_spot_values(x):
    assert gamma(x) == pytest.approx(GAMMA_TABLE[x], rel=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
def test_gamma_rejects_poles(x):
    with pytest.raises(ValueError):
        gamma(x)


@given(st.floats(min_value=0.05, max_value=30.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_gamma_reflection(x):
    assert gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) == pytest.approx(
        math.pi, rel=1e-10
    )


# sum_{k>=0} z^k / Gamma(k + beta), mpmath dps=40
ML_TABLE = [
    (1.5, 2j, 0.19831266161222919 + 0.9192037034162841j),
    (1.5, 1.0, 2.290698252303238),
    (1.4, 1.0, 2.3935181109383064),
    (1.5, -3.0, 0.23719834177477958),
    (1.6, 0.5, 1.5466300172770928),
]


@pytest.mark.parametrize("beta,z,expected", ML_TABLE)
def test_mittag_leffler_spot_values(beta, z, expected):
    assert mittag_leffler_1(beta, z) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("z", [0.0, 1.0, -2.5, 3.7j, -1.0 + 2.0j, 10.0])
def test_mittag_leffler_reduces_to_exp(z):
    """E_{1,1}(z) = e^z term by term."""
    assert mittag_leffler_1(1.0, z) == pytest.approx(cmath.exp(z), rel=1e-13)


@pytest.mark.parametrize("z", [0.5, -1.0, 2.0 + 1.0j, -4.0])
def test_mittag_leffler_beta_two(z):
    assert mittag_leffler_1(2.0, z) == pytest.approx(
        (cmath.exp(z) - 1.0) / z, rel=1e-12
    )


@given(
    st.floats(min_value=0.3, max_value=2.5),
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=-8.0, max_value=8.0),
)
def test_mittag_leffler_conjugate_symmetry(beta, re, im):
    """Conjugate arguments give conjugate values, or both cancel past the cap and raise."""
    z = complex(re, im)
    try:
        right = mittag_leffler_1(beta, z).conjugate()
    except NonConvergenceError:
        with pytest.raises(NonConvergenceError):
            mittag_leffler_1(beta, z.conjugate())
        return
    left = mittag_leffler_1(beta, z.conjugate())
    assert left == pytest.approx(right, rel=1e-12, abs=1e-290)


def test_mittag_leffler_validation():
    with pytest.raises(ValueError):
        mittag_leffler_1(0.0, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler_1(-1.5, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler_1(1.5, 60.0)
    with pytest.raises(NonConvergenceError):
        mittag_leffler_1(1.5, 20.0, max_terms=5)


@pytest.mark.parametrize("z", [math.nan, complex(math.nan, 0.0), complex(2.0, math.nan)])
def test_mittag_leffler_rejects_nan(z):
    """NaN is outside the domain: the call raises the domain error at once
    rather than running every point to the term cap."""
    with pytest.raises(ValueError, match=r"\|z\| <= 50, got \|z\|=nan"):
        mittag_leffler_1(1.5, z)
    zs = np.linspace(0.0, 1.0, 40960).astype(type(z))
    zs[30000] = z
    with pytest.raises(ValueError, match=r"\|z\|=nan"):
        mittag_leffler_1(1.5, zs)


#: 4097 real arguments over the whole domain, both ends included.
ML_GRID = np.linspace(-50.0, 50.0, 4097)


def _scalar_series(beta, z):
    """The term loop of mittag_leffler_1 for one argument, in Python complex.

    Returns the sum and the largest partial-sum magnitude.
    """
    zc = complex(z)
    term = complex(1.0 / math.gamma(beta))
    total = term
    peak = abs(total)
    for k in range(1, 501):
        term *= zc / (k - 1.0 + beta)
        total += term
        peak = max(peak, abs(total))
        if abs(term) <= 1e-18 * max(peak, 1e-300):
            return total, peak
    raise AssertionError(f"reference series did not converge at z={z!r}")


@pytest.mark.parametrize("beta", [1.3, 1.7])
def test_mittag_leffler_array_matches_scalar_series(beta):
    """An array of real arguments gives the Python-complex series bit for bit.

    Only the non-negative ones are summed; the negative axis goes to
    ``hyp1f1`` (test_mittag_leffler_negative_axis_against_mpmath).
    """
    grid = ML_GRID[ML_GRID >= 0.0]
    got = mittag_leffler_1(beta, grid)
    assert got.shape == grid.shape and got.dtype == complex
    assert np.array_equal(got, [_scalar_series(beta, z)[0] for z in grid.tolist()])


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.9, 1.0, 1.1, 1.25, 1.5, 1.75, 2.0])
def test_mittag_leffler_negative_axis_against_mpmath(beta):
    """Within 2e-13 on the negative real axis, where the series cancels (1.1e-13 measured)."""
    mpmath = pytest.importorskip("mpmath")
    zs = np.linspace(-50.0, -0.25, 100)
    got = mittag_leffler_1(beta, zs)
    with mpmath.workdps(30):
        exact = [float(mpmath.hyp1f1(1, beta, z) / mpmath.gamma(beta)) for z in zs.tolist()]
    assert np.all(got.imag == 0.0)
    assert got.real == pytest.approx(exact, rel=2e-13, abs=0.0)


def test_mittag_leffler_negative_axis_near_beta_one():
    """Within 1.1 times the docstring's 1.68e-12 (measured at beta 1.01, z -39.4)
    for beta from 0.90 to 1.20 in steps of 0.01, a band the nine-beta test steps over."""
    mpmath = pytest.importorskip("mpmath")
    zs = np.linspace(-50.0, -0.25, 100)
    for beta in [k / 100 for k in range(90, 121)]:
        got = mittag_leffler_1(beta, zs)
        with mpmath.workdps(30):
            exact = [float(mpmath.hyp1f1(1, beta, z) / mpmath.gamma(beta)) for z in zs.tolist()]
        assert got.real == pytest.approx(exact, rel=1.1 * 1.68e-12, abs=0.0), beta


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.9, 1.0, 1.1, 1.25, 1.5, 1.75, 2.0])
def test_mittag_leffler_positive_axis_against_mpmath(beta):
    """Within the docstring's 3.5e-15 on [0, 50], where every term is positive."""
    mpmath = pytest.importorskip("mpmath")
    zs = np.linspace(0.0, 50.0, 401)
    got = mittag_leffler_1(beta, zs)
    with mpmath.workdps(40):
        exact = [float(mpmath.hyp1f1(1, beta, z) / mpmath.gamma(beta)) for z in zs.tolist()]
    assert np.all(got.imag == 0.0)
    assert got.real == pytest.approx(exact, rel=3.5e-15, abs=0.0)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_mittag_leffler_complex_circles_against_mpmath(beta):
    """Off the real axis a value comes back within 5e-12, or the call raises.

    It raises exactly where the partial sums peak above 1e4 times the true
    value (mpmath, 40 digits); a 1% band around the cap may go either way.
    """
    mpmath = pytest.importorskip("mpmath")
    returned = raised = 0
    for radius in (5.0, 10.0, 20.0, 40.0):
        for k in range(72):
            z = cmath.rect(radius, 2.0 * math.pi * (k + 0.5) / 72)
            with mpmath.workdps(40):
                exact = complex(mpmath.hyp1f1(1, beta, z) / mpmath.gamma(beta))
            ratio = _scalar_series(beta, z)[1] / abs(exact)
            try:
                got = mittag_leffler_1(beta, z)
            except NonConvergenceError:
                assert ratio > 0.99e4, (z, ratio)
                raised += 1
                continue
            assert ratio < 1.01e4, (z, ratio)
            assert abs(got - exact) <= 5e-12 * abs(exact), (z, ratio)
            returned += 1
    assert returned and raised


def test_mittag_leffler_array_matches_scalar_calls():
    got = mittag_leffler_1(1.5, ML_GRID)
    assert np.array_equal(got, [mittag_leffler_1(1.5, z) for z in ML_GRID.tolist()])


def test_mittag_leffler_array_shapes():
    points = [[2j, -1.0 + 2.0j, 0.5], [1.0, -3.0, 20.0]]
    got = mittag_leffler_1(1.5, points)
    assert got.shape == (2, 3)
    for row, zs in zip(got, points):
        for value, z in zip(row, zs):
            assert value == pytest.approx(mittag_leffler_1(1.5, z), rel=1e-15)
    assert isinstance(mittag_leffler_1(1.5, 1.0), complex)
    assert isinstance(mittag_leffler_1(1.5, np.float64(1.0)), complex)


def test_mittag_leffler_array_validation():
    """One argument out of the domain raises the scalar call's error."""
    with pytest.raises(ValueError) as scalar:
        mittag_leffler_1(1.5, -60.0)
    with pytest.raises(ValueError) as array:
        mittag_leffler_1(1.5, np.array([1.0, -60.0, 2.0]))
    assert str(array.value) == str(scalar.value)
    # Deep in a long array, ahead of a later bad argument.
    zs = np.ones(3000)
    zs[2500], zs[2900] = -60.0, 70.0
    with pytest.raises(ValueError) as array:
        mittag_leffler_1(1.5, zs)
    assert str(array.value) == str(scalar.value)
    with pytest.raises(NonConvergenceError):
        mittag_leffler_1(1.5, np.array([0.5, 20.0]), max_terms=5)


def test_mittag_leffler_keyword_arguments():
    """Arguments bind by name as in a plain call, for scalars and arrays."""
    assert mittag_leffler_1(beta=1.5, z=2.0) == mittag_leffler_1(1.5, 2.0)
    assert mittag_leffler_1(1.5, z=2.0, max_terms=100) == mittag_leffler_1(1.5, 2.0)
    assert np.array_equal(mittag_leffler_1(beta=1.5, z=ML_GRID), mittag_leffler_1(1.5, ML_GRID))


def test_alpha_constants_fields():
    c = alpha_constants(0.5)
    assert c.alpha == 0.5
    assert c.zeta_a == pytest.approx(-1.4603545088095868, rel=1e-12)
    assert c.zeta_am1 == pytest.approx(-0.20788622497735457, rel=1e-12)
    assert c.zeta_am2 == pytest.approx(-0.025485201889833036, rel=1e-12)
    assert c.zeta_am3 == pytest.approx(0.008516928777850331, rel=1e-12)
    assert c.zeta_ap1 == pytest.approx(2.612375348685488, rel=1e-12)
    assert c.gamma_1ma == pytest.approx(1.772453850905516, rel=1e-13)
    assert c.gamma_2ma == pytest.approx(0.886226925452758, rel=1e-13)
    assert c.gamma_ma == pytest.approx(-3.544907701811032, rel=1e-13)


def test_alpha_constants_cached():
    assert alpha_constants(0.3) is alpha_constants(0.3)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7])
def test_alpha_constants_domain(alpha):
    with pytest.raises(ValueError):
        alpha_constants(alpha)


def _fsum_outcome(fn, x):
    """``fn(x)`` as its float's hex digits and sign bit, or the exception type."""
    try:
        value = fn(x)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return float.hex(value), math.copysign(1.0, value)


def test_exact_sum_is_fsum():
    """Bit for bit ``math.fsum``: seeded arrays over the whole exponent range,
    cancellation, half-ulp ties, the sizes where the extraction's scale
    steps, signed zeros and the non-finite fallback."""
    rng = np.random.default_rng(2008)
    cases = []
    for n in (3, 17, 256, 4099):
        mant = rng.uniform(-1.0, 1.0, n)
        cases.append(np.ldexp(mant, rng.integers(-1074, 900, n)))  # subnormals included
        cases.append(np.ldexp(mant, rng.integers(-1074, -1000, n)))
        x = np.ldexp(mant, rng.integers(-40, 40, n))
        cases.append(rng.permutation(np.concatenate((x, -x, [2.0**-70, -3.0 * 2.0**-95]))))
        cases.append(np.ldexp(rng.integers(-3, 4, n).astype(float), rng.integers(-60, 3, n)))
    cases += [
        np.array([1.0, 2.0**-53]),
        np.array([1.0, 2.0**-53, 2.0**-1074]),
        np.array([1.0, -(2.0**-54)]),
        np.array([2.0**1000, 1.0, -(2.0**1000)]),
        np.array([1e308, -1e308, 5e-324]),
    ]
    for n in (0, 1, 2**17 - 3, 2**17 - 2, 2**17):
        cases.append(rng.uniform(-2.0, -1.9, n))  # sums near the extraction's sigma
        cases.append(rng.standard_normal(n) * np.exp2(rng.integers(-30, 30, n)))
    cases += [np.full(5, -0.0), np.zeros(3), np.array([-0.0, 0.0])]
    cases += [
        np.array([1.0, math.inf]),
        np.array([-math.inf, 2.0]),
        np.array([math.nan, 1.0]),
        np.array([math.inf, -math.inf]),
        np.array([1e308, 1e308]),
    ]
    for x in cases:
        assert _fsum_outcome(_exact_sum, x) == _fsum_outcome(lambda a: math.fsum(a.tolist()), x)
    with pytest.raises(OverflowError):
        _exact_sum(np.array([1e308, 1e308]))
