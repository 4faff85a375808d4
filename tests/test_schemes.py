"""Tests for weight construction, deficit sums, and stencil properties.

The closed-form expected stencils below are written out independently of the
builder (which adds head corrections and tail deltas to one interior vector),
so these tests catch any drift in either.  Deficit reference values come from
mpmath at 40 digits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caputofd import (
    SchemeId,
    WeightVector,
    build_weights,
    expansion_coefficients,
    nominal_order,
    normalized_lambda,
    scheme_norm,
    validate_weights,
    zeta,
)
from caputofd.schemes import _deficit_table, _tail_coefficients

ALPHAS = [0.25, 0.5, 0.75]


def _assert_vector(scheme, alpha, expected):
    wv = build_weights(scheme, alpha, len(expected) - 1)
    np.testing.assert_allclose(wv.weights, expected, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# closed-form stencils, small n
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", ALPHAS)
def test_l1_two_point(a):
    _assert_vector(SchemeId.L1, a, [1.0, 2.0 ** (1 - a) - 2.0, 1.0 - 2.0 ** (1 - a)])


@pytest.mark.parametrize("a", ALPHAS)
def test_l1_second_four_point(a):
    z1 = zeta(a - 1.0)
    expected = [
        1.0 - z1,
        2.0 ** (1 - a) - 2.0 + 2.0 * z1,
        3.0 ** (1 - a) - 2.0 ** (2 - a) + 1.0 - z1,
        4.0 ** (1 - a) - 2.0 * 3.0 ** (1 - a) + 2.0 ** (1 - a),
        3.0 ** (1 - a) - 4.0 ** (1 - a),
    ]
    _assert_vector(SchemeId.L1Second, a, expected)


@pytest.mark.parametrize("a", ALPHAS)
def test_mid_low_small_n(a):
    _assert_vector(SchemeId.MidLow, a, [1.0, 0.0, -1.0])
    _assert_vector(SchemeId.MidLow, a, [1.0, 2.0 ** -a, -1.0, -(2.0 ** -a)])


@pytest.mark.parametrize("a", ALPHAS)
def test_mid_raw_three_point(a):
    z = zeta(a)
    expected = [1.0 - 2.0 * z, 2.0 ** -a + 2.0 * z, -1.0, -(2.0 ** -a)]
    _assert_vector(SchemeId.MidRaw, a, expected)


@pytest.mark.parametrize("a", ALPHAS)
def test_mid_corrected_two_point(a):
    z = zeta(a)
    q = 2.0 ** (2 - a) / (1 - a)
    expected = [1.0 - 2.0 * z, 4.0 * z + q - 2.0, 1.0 - 2.0 * z - q]
    _assert_vector(SchemeId.Mid2mAlpha, a, expected)


@pytest.mark.parametrize("a", ALPHAS)
def test_mid_second_two_point(a):
    z, z1 = zeta(a), zeta(a - 1.0)
    q = 2.0 ** (2 - a) / (1 - a)
    expected = [
        1.0 + 2.0 * z1 - 3.0 * z,
        -4.0 * z1 + 6.0 * z + q - 2.0,
        1.0 + 2.0 * z1 - 3.0 * z - q,
    ]
    _assert_vector(SchemeId.Mid2, a, expected)


@pytest.mark.parametrize("a", ALPHAS)
def test_mid_second_three_point(a):
    z, z1 = zeta(a), zeta(a - 1.0)
    expected = [
        1.0 + 2.0 * z1 - 3.0 * z,
        2.0 ** -a - 4.0 * z1 + 4.0 * z,
        2.0 * z1 + z - 2.0 * (2.0 ** -a - 3.0 ** (1 - a) / (1 - a)) - 3.0,
        2.0 - 2.0 * z - 2.0 * 3.0 ** (1 - a) / (1 - a) + 2.0 ** -a,
    ]
    _assert_vector(SchemeId.Mid2, a, expected)


@pytest.mark.parametrize("a", ALPHAS)
def test_right_low_four_point(a):
    s = 1.0 + 2.0 ** (-1 - a) + 3.0 ** (-1 - a) - zeta(1 + a)
    expected = [-zeta(1 + a), 1.0, 2.0 ** (-1 - a), 3.0 ** (-1 - a), -s]
    _assert_vector(SchemeId.RightLow, a, expected)


@pytest.mark.parametrize("a", ALPHAS)
def test_right_raw_three_point(a):
    s = 1.0 + 2.0 ** (-1 - a) - zeta(1 + a)
    expected = [
        zeta(a) - zeta(1 + a),
        1.0 - zeta(a),
        2.0 ** (-1 - a),
        -s,
    ]
    _assert_vector(SchemeId.RightRaw, a, expected)


@pytest.mark.parametrize("a", ALPHAS)
def test_right_corrected_two_point(a):
    z, z1 = zeta(a), zeta(1 + a)
    q = 2.0 ** (1 - a) / (a * (1 - a))
    expected = [z - z1, 2.0 * z1 - 2.0 * z - q, z - z1 + q]
    _assert_vector(SchemeId.Right2mAlpha, a, expected)


@pytest.mark.parametrize("a", ALPHAS)
def test_right_third_two_point(a):
    expected = [
        (a + 2.0) / (2.0 ** a * a * (a - 1.0) * (2.0 - a)),
        4.0 / (2.0 ** a * (2.0 - a) * (1.0 - a)),
        (2.0 - 3.0 * a) / (2.0 ** a * (2.0 - a) * (1.0 - a) * a),
    ]
    _assert_vector(SchemeId.Right3mAlpha, a, expected)


@pytest.mark.parametrize("a", ALPHAS)
def test_right_third_three_point(a):
    z, zm, zp = zeta(a), zeta(a - 1.0), zeta(a + 1.0)
    expected = [
        -0.5 * zm + 1.5 * z - zp,
        1.5 * zm + 3.0 * zp - 4.5 * z - 3.0 ** (1 - a) * (a + 4.0) / (2.0 * a * (1 - a) * (2 - a)),
        -1.5 * zm + 4.5 * z - 3.0 * zp + 2.0 * 3.0 ** (1 - a) * (a + 1.0) / (a * (1 - a) * (2 - a)),
        0.5 * zm + zp - 1.5 * z - 3.0 ** (2 - a) / (2.0 * (1 - a) * (2 - a)),
    ]
    _assert_vector(SchemeId.Right3mAlpha, a, expected)


# ---------------------------------------------------------------------------
# closed-form stencils, general n
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", ALPHAS)
@pytest.mark.parametrize("n", [6, 11, 40])
def test_mid_corrected_general(a, n):
    w = [1.0 - 2.0 * zeta(a), 2.0 ** -a + 2.0 * zeta(a)]
    w += [(j + 1.0) ** -a - (j - 1.0) ** -a for j in range(2, n - 1)]
    deficit = math.fsum(float(k) ** -a for k in range(1, n)) - zeta(a) - float(
        n
    ) ** (1 - a) / (1 - a)
    w.append(-((n - 2.0) ** -a) - 2.0 * deficit)
    w.append(-((n - 1.0) ** -a) + 2.0 * deficit)
    _assert_vector(SchemeId.Mid2mAlpha, a, w)


@pytest.mark.parametrize("a", ALPHAS)
@pytest.mark.parametrize("n", [6, 11, 40])
def test_right_corrected_general(a, n):
    s1 = math.fsum(float(k) ** -(1 + a) for k in range(1, n)) - zeta(1 + a)
    s0 = math.fsum(float(k) ** -a for k in range(1, n)) - zeta(a)
    q = float(n) ** (1 - a) / (a * (1 - a))
    w = [zeta(a) - zeta(1 + a), 1.0 - zeta(a)]
    w += [float(k) ** -(1 + a) for k in range(2, n - 1)]
    w.append((n - 1.0) ** -(1 + a) - q - n * s1 + s0)
    w.append((n - 1.0) * s1 - s0 + q)
    _assert_vector(SchemeId.Right2mAlpha, a, w)


@pytest.mark.parametrize("a", ALPHAS)
@pytest.mark.parametrize("n", [6, 8, 10, 12, 14, 16])
def test_right_third_general(a, n):
    """Base-plus-tail closed form with the deficit sums evaluated directly."""
    s1 = math.fsum(float(k) ** -(1 + a) for k in range(1, n)) - zeta(1 + a)
    s0 = math.fsum(float(k) ** -a for k in range(1, n)) - zeta(a)
    sm = math.fsum(float(k) ** -(a - 1) for k in range(1, n)) - zeta(a - 1)
    kay1 = n * s1 - s0 + float(n) ** (1 - a) / (a * (1 - a))
    kay2 = (
        0.5 * n * n * s1
        - n * s0
        + 0.5 * sm
        + float(n) ** (2 - a) / (a * (a - 1) * (a - 2))
    )
    z, zm, zp = zeta(a), zeta(a - 1.0), zeta(a + 1.0)
    w = [-zp + 1.5 * z - 0.5 * zm, 1.0 - 2.0 * z + zm, 2.0 ** -(1 + a) + 0.5 * z - 0.5 * zm]
    w += [float(k) ** -(1 + a) for k in range(3, n - 2)]
    w.append((n - 2.0) ** -(1 + a) + 0.5 * kay1 - kay2)
    w.append((n - 1.0) ** -(1 + a) - 2.0 * kay1 + 2.0 * kay2)
    w.append(-s1 + 1.5 * kay1 - kay2)
    wv = build_weights(SchemeId.Right3mAlpha, a, n)
    np.testing.assert_allclose(wv.weights, w, rtol=0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# last three weights against mpmath
# ---------------------------------------------------------------------------

FAMILIES = {
    "L1": (SchemeId.L1, SchemeId.L1Second),
    "Mid": (SchemeId.MidLow, SchemeId.MidRaw, SchemeId.Mid2mAlpha, SchemeId.Mid2),
    "Right": (SchemeId.RightLow, SchemeId.RightRaw, SchemeId.Right2mAlpha, SchemeId.Right3mAlpha),
}
TAIL_ALPHAS = [0.1, 0.3, 0.5, 0.7, 0.9]
TAIL_NS = list(range(2, 61)) + [4095, 4096, 65536]

#: Bounds on the worst ``|w - ref| / max|w|`` over the last three weights,
#: per family and per n-range (n <= 50 reads the closed forms, n > 50 the
#: series): 1.1 times what this test measured on the earlier builder, which
#: summed every deficit with ``math.fsum`` and shared no tail code with
#: the solver.
TAIL_BOUNDS = {
    ("L1", True): 1.1 * 6.413e-15,
    ("L1", False): 1.1 * 2.073e-12,  # interior second differences at n = 65536
    ("Mid", True): 1.1 * 6.081e-15,
    ("Mid", False): 1.1 * 1.078e-16,
    ("Right", True): 1.1 * 1.280e-12,  # the K_2 closed form at n = 50
    ("Right", False): 1.1 * 9.069e-16,
}


def _mp_deficits(mp, s, ns):
    """``S_n[s] = -zeta(s, n)`` (Hurwitz) in mpmath for ascending ``ns``.

    Each run of consecutive n starts from the Hurwitz value and steps by
    ``S_{n+1} = S_n + n^-s``.  For ``s < 0`` at an integer n mpmath sums all
    n terms, so past n = 60 the start comes from ``n + d``, ``d = 2^-30``,
    where mpmath uses Euler-Maclaurin, through the Taylor series in the
    shift: ``zeta(s, n) = sum_j (s)_j / j! * d^j * zeta(s + j, n + d)``.
    """
    d = mp.ldexp(1, -30)
    out = {}
    for n in ns:
        if n - 1 in out:
            out[n] = out[n - 1] + mp.mpf(n - 1) ** -s
        elif s > 0 or n <= 60:
            out[n] = -mp.zeta(s, n)
        else:
            terms = (mp.rf(s, j) / mp.factorial(j) * d**j * mp.zeta(s + j, n + d) for j in range(4))
            out[n] = -mp.fsum(terms)
    return out


def _mp_last_weights(mp, scheme, a, n, zetas, s0, s1, sm):
    """``w_{n-2}, w_{n-1}, w_n`` of the n-step stencil, from the printed formulas.

    Base weights, head corrections and tail corrections are summed in
    mpmath, from ``zetas = (zeta(a), zeta(a-1), zeta(a+1))``, the harmonic
    deficits ``s0, s1, sm = S_n[a], S_n[1+a], S_n[a-1]`` and the closed
    forms of ``W_n``, ``K_1`` and ``K_2`` at every n.
    """
    m = mp.mpf(n)
    z, zm, zp = zetas

    def base(k):
        if scheme in FAMILIES["L1"]:
            if k == 0:
                return mp.mpf(1)
            if k == n:
                return (k - 1) ** (1 - a) - m ** (1 - a)
            return (k + 1) ** (1 - a) - 2 * mp.mpf(k) ** (1 - a) + (k - 1) ** (1 - a)
        if scheme in FAMILIES["Mid"]:
            if k == 0:
                return mp.mpf(1)
            up = mp.mpf(k + 1) ** -a if k <= n - 2 else 0
            down = mp.mpf(k - 1) ** -a if k >= 2 else 0
            return up - down
        if k == 0:
            return -zp
        return -s1 if k == n else mp.mpf(k) ** (-1 - a)

    w = {k: base(k) for k in range(n - 2, n + 1)}

    def add(k, value):
        if k in w:
            w[k] += value

    if scheme is SchemeId.L1Second:
        add(0, -zm), add(1, 2 * zm), add(2, -zm)
    elif scheme in (SchemeId.MidRaw, SchemeId.Mid2mAlpha, SchemeId.Mid2):
        add(0, -2 * z), add(1, 2 * z)
        if scheme is SchemeId.Mid2:
            d = 2 * zm - z
            add(0, d), add(1, -2 * d), add(2, d)
    elif scheme in (SchemeId.RightRaw, SchemeId.Right2mAlpha):
        add(0, z), add(1, -z)
    elif scheme is SchemeId.Right3mAlpha:
        add(0, 1.5 * z - 0.5 * zm), add(1, -2 * z + zm), add(2, 0.5 * z - 0.5 * zm)

    wn = s0 - m ** (1 - a) / (1 - a)
    k1 = m * s1 - s0 + m ** (1 - a) / (a * (1 - a))
    k2 = m * m / 2 * s1 - m * s0 + sm / 2 + m ** (2 - a) / (a * (a - 1) * (a - 2))
    if scheme in (SchemeId.Mid2mAlpha, SchemeId.Mid2):
        add(n - 1, -2 * wn), add(n, 2 * wn)
    elif scheme is SchemeId.Right2mAlpha:
        add(n - 1, -k1), add(n, k1)
    elif scheme is SchemeId.Right3mAlpha:
        add(n - 2, k1 / 2 - k2), add(n - 1, -2 * k1 + 2 * k2), add(n, 1.5 * k1 - k2)
    return [w[k] for k in range(n - 2, n + 1)]


def _worst_tail_errors(mp):
    worst = dict.fromkeys(TAIL_BOUNDS, 0.0)
    with mp.workdps(30):
        for alpha in TAIL_ALPHAS:
            a = mp.mpf(alpha)
            zetas = mp.zeta(a), mp.zeta(a - 1), mp.zeta(a + 1)
            deficits = [_mp_deficits(mp, s, TAIL_NS) for s in (a, 1 + a, a - 1)]
            for n in TAIL_NS:
                for family, schemes in FAMILIES.items():
                    for scheme in schemes:
                        w = build_weights(scheme, alpha, n).weights
                        ref = _mp_last_weights(mp, scheme, a, n, zetas, *(d[n] for d in deficits))
                        err = max(abs(mp.mpf(float(x)) - r) for x, r in zip(w[-3:], ref))
                        key = (family, n <= 50)
                        worst[key] = max(worst[key], float(err) / float(np.max(np.abs(w))))
    return worst


def test_stencil_tails_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst = _worst_tail_errors(mpmath)
    assert all(worst[key] <= bound for key, bound in TAIL_BOUNDS.items()), worst


# ---------------------------------------------------------------------------
# deficit sums
# ---------------------------------------------------------------------------

# mpmath dps=40
HARMONIC_CASES = [
    (0.5, 3, 3.1674612899961345),
    (1.5, 2, -1.6123753486854884),
    (1.5, 10, -0.6486616319415704),
    (1.5, 100, -0.2005012499817719),
    (-0.5, 4, 4.354150594919327),
]


@pytest.mark.parametrize("s,n,expected", HARMONIC_CASES)
def test_harmonic_deficit_values(s, n, expected):
    assert _deficit_table(s, n, zeta(s))[n] == pytest.approx(expected, rel=1e-12)


@given(
    st.floats(min_value=-0.9, max_value=1.9).filter(lambda s: abs(s - 1.0) > 1e-3),
    st.integers(min_value=2, max_value=400),
)
def test_harmonic_deficit_recurrence(s, n):
    table = _deficit_table(s, n + 1, zeta(s))
    left = table[n + 1]
    right = table[n] + float(n) ** -s
    assert left == pytest.approx(right, rel=1e-10, abs=1e-12)


# mpmath dps=40; n = 50 exercises the summed path, n = 51 the asymptotic one.
# The ids keep the names of the scalar functions these cases were written for.
COEFFICIENTS = {
    "s1": "s1",
    "midpoint_tail_deficit": "w",
    "k1_coefficient": "k1",
    "k2_coefficient": "k2",
}
DEFICIT_CASES = [
    ("midpoint_tail_deficit", 0.5, 50, -0.07082852630301605),
    ("midpoint_tail_deficit", 0.5, 51, -0.07012840342045604),
    ("midpoint_tail_deficit", 0.5, 2560, -0.009882439371541608),
    ("midpoint_tail_deficit", 0.75, 64, -0.022140244439910133),
    ("k1_coefficient", 0.5, 50, -0.00023568458714319347),
    ("k1_coefficient", 0.5, 51, -0.00022878744532018182),
    ("k1_coefficient", 0.5, 100, -8.333177093097736e-05),
    ("k1_coefficient", 0.5, 2560, -6.433670185739946e-07),
    ("k1_coefficient", 0.25, 64, -0.0004603401743811969),
    ("k1_coefficient", 0.4, 64, -0.0002466885428801633),
    ("k2_coefficient", 0.5, 50, 3.5345523231934413e-07),
    ("k2_coefficient", 0.5, 51, 3.3638658400780674e-07),
    ("k2_coefficient", 0.5, 100, 6.249566028606808e-08),
    ("k2_coefficient", 0.5, 2560, 1.8848641664275212e-11),
    ("k2_coefficient", 0.4, 64, 2.69784009941429e-07),
    # mpmath dps=60, the series path from m = 51 to 2**20.
    ("s1", 0.1, 51, -6.75569573919749),
    ("s1", 0.1, 4096, -4.352805953048514),
    ("s1", 0.1, 40960, -3.4575186815237937),
    ("s1", 0.1, 2**20, -2.50000011920931),
    ("s1", 0.5, 51, -0.281435569567676),
    ("s1", 0.5, 4096, -0.031251907465048134),
    ("s1", 0.5, 40960, -0.00988217800405404),
    ("s1", 0.5, 2**20, -0.0019531254656613983),
    ("s1", 0.9, 51, -0.03256740223845091),
    ("s1", 0.9, 4096, -0.0006232772159961679),
    ("s1", 0.9, 40960, -7.845819429929206e-05),
    ("s1", 0.9, 2**20, -4.238554336351063e-06),
    ("midpoint_tail_deficit", 0.1, 51, -0.33756303873685406),
    ("midpoint_tail_deficit", 0.1, 4096, -0.21763852639385656),
    ("midpoint_tail_deficit", 0.1, 40960, -0.17287579338862158),
    ("midpoint_tail_deficit", 0.1, 2**20, -0.12500000198682149),
    ("midpoint_tail_deficit", 0.5, 4096, -0.007812658945718809),
    ("midpoint_tail_deficit", 0.5, 40960, -0.0024705344483115224),
    ("midpoint_tail_deficit", 0.5, 2**20, -0.0004882812888051072),
    ("midpoint_tail_deficit", 0.9, 51, -0.014569084521576863),
    ("midpoint_tail_deficit", 0.9, 4096, -0.0002804542044890023),
    ("midpoint_tail_deficit", 0.9, 40960, -3.5305928844283614e-05),
    ("midpoint_tail_deficit", 0.9, 2**20, -1.90734890566091e-06),
    ("k1_coefficient", 0.1, 51, -0.0011027378420480488),
    ("k1_coefficient", 0.1, 4096, -8.855698214751804e-06),
    ("k1_coefficient", 0.1, 40960, -7.034331178117205e-07),
    ("k1_coefficient", 0.1, 2**20, -1.986821492512812e-08),
    ("k1_coefficient", 0.5, 4096, -3.178914352493698e-07),
    ("k1_coefficient", 0.5, 40960, -1.005260995170265e-08),
    ("k1_coefficient", 0.5, 2**20, -7.761021455127664e-11),
    ("k1_coefficient", 0.9, 51, -4.746674262044994e-05),
    ("k1_coefficient", 0.9, 4096, -1.1411292713226561e-08),
    ("k1_coefficient", 0.9, 40960, -1.4365966611648153e-10),
    ("k1_coefficient", 0.9, 2**20, -3.0316490059090003e-13),
    ("k2_coefficient", 0.1, 51, 1.1890437447229863e-06),
    ("k2_coefficient", 0.1, 4096, 1.18911960489498e-10),
    ("k2_coefficient", 0.1, 40960, 9.445513054295311e-13),
    ("k2_coefficient", 0.1, 2**20, 1.0421293457809906e-15),
    ("k2_coefficient", 0.5, 4096, 5.820765850412943e-12),
    ("k2_coefficient", 0.5, 40960, 1.840687856811242e-14),
    ("k2_coefficient", 0.5, 2**20, 5.551115123122276e-18),
    ("k2_coefficient", 0.9, 51, 8.839730663233236e-08),
    ("k2_coefficient", 0.9, 4096, 2.646662030170466e-13),
    ("k2_coefficient", 0.9, 40960, 3.33195026269654e-16),
    ("k2_coefficient", 0.9, 2**20, 2.7466455036277017e-20),
]


# The n = 50 closed forms of K_1 and K_2 cancel; against the values above
# they are off by 1.8e-11 and 9.3e-7 relative.  The n = 50 W holds 1e-11,
# and every series case (n > 50) 1e-14.
CLOSED_FORM_REL = {("k1_coefficient", 50): 5e-11, ("k2_coefficient", 50): 2e-6}


@pytest.mark.parametrize("fn,a,n,expected", DEFICIT_CASES)
def test_deficit_reference_values(fn, a, n, expected):
    rel = CLOSED_FORM_REL.get((fn, n), 1e-11 if n <= 50 else 1e-14)
    (value,) = _tail_coefficients(a, np.array([n]), (COEFFICIENTS[fn],))
    assert value[0] == pytest.approx(expected, rel=rel, abs=0.0)


def _sequential_deficits(s, m_max):
    """S_m[s] for m = 0 .. m_max from a scalar Neumaier accumulator."""
    total = comp = 0.0
    out = [-zeta(s), -zeta(s)]
    for k in range(1, m_max):
        x = float(k) ** -s
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
        out.append(total + comp - zeta(s))
    return np.array(out)


TABLE_ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


@pytest.mark.parametrize("a", TABLE_ALPHAS)
def test_deficit_table_is_the_running_neumaier_sum(a):
    for s in (a, 1.0 + a, a - 1.0):
        table = _deficit_table(s, 4095, zeta(s))
        assert table.tobytes() == _sequential_deficits(s, 4095).tobytes()


@pytest.mark.parametrize("a", TABLE_ALPHAS)
def test_deficit_table_against_mpmath(a):
    mpmath = pytest.importorskip("mpmath")
    for s in (a, 1.0 + a, a - 1.0):
        table = _deficit_table(s, 4095, zeta(s))
        for m in (2, 50, 51, 4095):
            with mpmath.workdps(30):
                # Hurwitz zeta: sum_{k<m} k^-s - zeta(s) = -zeta(s, m)
                exact = -mpmath.zeta(mpmath.mpf(s), m)
                error = float(abs(table[m] - exact))
            # S_m[1+alpha] is a small difference of O(1) terms; scale by both.
            scale = max(abs(float(exact)), abs(zeta(s)))
            assert error <= 1e-15 * scale


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("n", [2, 5, 17, 50, 51, 200, 5000])
def test_deficit_signs_and_bound(a, n):
    w, k1, k2 = _tail_coefficients(a, np.array([n]), ("w", "k1", "k2"))
    assert -(float(n) ** -a) < w[0] < 0.0
    assert k1[0] < 0.0
    assert k2[0] > 0.0


# ---------------------------------------------------------------------------
# scheme metadata and invariants
# ---------------------------------------------------------------------------


def test_scheme_norms():
    g = math.gamma
    assert scheme_norm(SchemeId.L1, 0.4) == pytest.approx(g(1.6))
    assert scheme_norm(SchemeId.L1Second, 0.4) == pytest.approx(g(1.6))
    for s in (SchemeId.MidLow, SchemeId.MidRaw, SchemeId.Mid2mAlpha, SchemeId.Mid2):
        assert scheme_norm(s, 0.4) == pytest.approx(2.0 * g(0.6))
    for s in (
        SchemeId.RightLow,
        SchemeId.RightRaw,
        SchemeId.Right2mAlpha,
        SchemeId.Right3mAlpha,
    ):
        assert scheme_norm(s, 0.4) == pytest.approx(-3.7229806220320425, rel=1e-13)
        assert scheme_norm(s, 0.4) < 0.0


def test_nominal_orders():
    a = 0.3
    assert nominal_order(SchemeId.L1, a) == pytest.approx(1.7)
    assert nominal_order(SchemeId.L1Second, a) == 2.0
    assert nominal_order(SchemeId.MidLow, a) == pytest.approx(0.7)
    assert nominal_order(SchemeId.MidRaw, a) == pytest.approx(1.7)
    assert nominal_order(SchemeId.Mid2mAlpha, a) == pytest.approx(1.7)
    assert nominal_order(SchemeId.Mid2, a) == 2.0
    assert nominal_order(SchemeId.RightLow, a) == pytest.approx(0.7)
    assert nominal_order(SchemeId.RightRaw, a) == pytest.approx(1.7)
    assert nominal_order(SchemeId.Right2mAlpha, a) == pytest.approx(1.7)
    assert nominal_order(SchemeId.Right3mAlpha, a) == pytest.approx(2.7)


def test_build_weights_validation():
    with pytest.raises(ValueError):
        build_weights(SchemeId.L1, 0.5, 1)
    with pytest.raises(ValueError):
        build_weights(SchemeId.L1, 1.2, 8)


def test_weight_vector_is_frozen():
    wv = build_weights(SchemeId.L1, 0.5, 6)
    assert not wv.weights.flags.writeable
    with pytest.raises(ValueError):
        wv.weights[0] = 0.0


def test_weight_vector_copies_its_weights():
    mine = np.array([1.0, -2.0, 1.0])
    wv = WeightVector(SchemeId.L1, 0.5, 2, mine, 1.0)
    assert mine.flags.writeable
    mine[0] = 7.0
    assert wv.weights[0] == 1.0 and not wv.weights.flags.writeable
    listed = WeightVector(SchemeId.L1, 0.5, 2, [1, -2, 1], 1.0)
    assert listed.weights.dtype == np.float64
    assert listed.weights.tolist() == [1.0, -2.0, 1.0]


@pytest.mark.parametrize(
    "n, weights", [(5, [1.0, -2.0, 1.0]), (2, [[1.0, -2.0, 1.0]]), (1, [1.0, -1.0])]
)
def test_weight_vector_shape_is_checked(n, weights):
    with pytest.raises(ValueError):
        WeightVector(SchemeId.L1, 0.5, n, np.array(weights), 1.0)


@pytest.mark.parametrize(
    "scheme", [SchemeId.L1, SchemeId.Mid2mAlpha, SchemeId.Right3mAlpha]
)
def test_normalized_lambda_orientation(scheme):
    wv = build_weights(scheme, 0.35, 9)
    lam = normalized_lambda(wv)
    assert lam[0] * wv.norm == pytest.approx(wv.weights[0], rel=1e-14)
    np.testing.assert_allclose(-lam[1:] * wv.norm, wv.weights[1:], rtol=1e-14)
    assert lam[0] > 0.0


def test_expansion_coefficients_values():
    # mpmath dps=40
    expected = {
        0.25: (0.14541205906283106, 0.22277844560562363, 0.06932699193854631),
        0.5: (0.23457448539057768, 0.29467115838339564, 0.17665738986552004),
        0.75: (0.35354191139193436, 0.3861947271461214, 0.3227905995525849),
    }
    for a, (c1, c9, c12) in expected.items():
        c = expansion_coefficients(a)
        assert c.c1 == pytest.approx(c1, rel=1e-13)
        assert c.c9 == pytest.approx(c9, rel=1e-13)
        assert c.c12 == pytest.approx(c12, rel=1e-13)


def test_expansion_coefficients_ordering():
    """All three leading-error constants are positive and the right-sum one
    is smallest for every alpha."""
    for k in range(1, 20):
        c = expansion_coefficients(k / 20)
        assert 0.0 < c.c12 < c.c1
        assert 0.0 < c.c12 < c.c9


@given(
    st.sampled_from(sorted(SchemeId, key=lambda s: s.value)),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=2, max_value=64),
)
@settings(deadline=None, max_examples=200)
def test_stencil_properties_hold(scheme, alpha, n):
    report = validate_weights(build_weights(scheme, alpha, n))
    assert report.all_passed, [
        (c.name, c.detail) for c in report.failures()
    ]


@given(
    st.floats(min_value=0.02, max_value=0.98),
    st.integers(min_value=2, max_value=300),
)
def test_l1_first_moment(alpha, n):
    """sum k*w_k recovers -n^(1-alpha) exactly for the two-point-difference
    stencil; this is what makes it exact on linear data."""
    wv = build_weights(SchemeId.L1, alpha, n)
    moment = math.fsum(float(k) * wv.weights[k] for k in range(1, n + 1))
    assert moment == pytest.approx(-(float(n) ** (1.0 - alpha)), rel=1e-11)
