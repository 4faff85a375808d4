"""Tests for the relaxation-equation solver.

The solver's interior-plus-tail-delta march is checked against a naive
reimplementation that rebuilds the full stencil every step; benchmark error
levels are pinned against independently tabulated reference values.
"""

import gc
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import ddot
from hypothesis import given, settings
from hypothesis import strategies as st

from caputofd import (
    NS_LABELS,
    RelaxationProblem,
    SchemeId,
    SingularDenominatorError,
    StabilityVerdict,
    StartMode,
    build_weights,
    default_start_mode,
    equation_catalog,
    exact_caputo_cos2pix,
    exact_caputo_exp,
    exact_caputo_power,
    first_step,
    normalized_lambda,
    solve,
    stability_check,
)
from caputofd import relaxation
from caputofd.caputo import caputo_quadrature
from caputofd.schemes import _interior_weights, _tail_deltas, scheme_norm
from caputofd.specfun import alpha_constants

ALL_SCHEMES = list(SchemeId)

#: Schemes whose nominal order is at least 2 - alpha (first-step accuracy
#: never caps these).
HIGH_ORDER = [
    SchemeId.L1,
    SchemeId.L1Second,
    SchemeId.MidRaw,
    SchemeId.Mid2mAlpha,
    SchemeId.Mid2,
    SchemeId.RightRaw,
    SchemeId.Right2mAlpha,
    SchemeId.Right3mAlpha,
]

#: Near fields the far-field tests run under (see :func:`_near_field`): the
#: solver's default, which leaves these short solves on the plain march,
#: and 16, which sends every solve of 16 steps or more through 16-step
#: leaves from step 3 on, whose lags from 16 on come from exponential
#: states.
DEFAULT_NEAR_FIELD = relaxation._NEAR_FIELD
DEFAULT_LEAF = relaxation._LEAF
NEAR_FIELDS = [DEFAULT_NEAR_FIELD, 16]

# E_{1,1.5}(1), mpmath mp.dps=40
ML_ONE_ONEHALF_AT_1 = 2.290698252303238


def _near_field(monkeypatch, width):
    """Leaves for every solve of ``width`` steps or more, as wide as ``width`` up to the default leaf."""
    monkeypatch.setattr(relaxation, "_NEAR_FIELD", width)
    monkeypatch.setattr(relaxation, "_LEAF", min(width, DEFAULT_LEAF))


def _naive_solve(problem, scheme, n, start):
    """Reference recurrence: rebuild the whole stencil at every step."""
    h = problem.x_end / n
    ha = h**problem.alpha
    u = [problem.y0, first_step(problem, h, start)]
    for m in range(2, n + 1):
        lam = normalized_lambda(build_weights(scheme, problem.alpha, m))
        acc = math.fsum(lam[k] * u[m - k] for k in range(1, m + 1))
        u.append((ha * problem.forcing(m * h) + acc) / (lam[0] + problem.D * ha))
    return np.array(u)


def _march_recipe(problem, scheme, n, dtype=np.float64):
    """The march's recipe for every step, transcribed step by step, its sums in ``dtype``.

    It reads the float64 weights, tail deltas (with ``solve``'s table end),
    ``h^alpha F``, ``D h^alpha`` and ``u_1`` that ``solve`` reads.  Step m
    takes one ``np.dot`` over the reversed history ``u[m-1::-1]``, adds each
    tail term ``t_j[m] * u_j`` in turn, then divides once: in float64 that
    is the march bit for bit, and in ``np.longdouble`` a reference that
    isolates the recurrence's rounding.
    """
    alpha, h = problem.alpha, problem.x_end / n
    ha, norm = h**alpha, scheme_norm(scheme, alpha)
    interior = _interior_weights(scheme, alpha, n, alpha_constants(alpha))
    lam = -interior / norm
    lam[0] = -lam[0]
    ms = np.arange(2, n + 1)
    tails = [-d / norm for d in _tail_deltas(scheme, alpha, ms, interior, relaxation._table_end(n))]
    f = ha * np.broadcast_to(problem.forcing(ms * h), (n - 1,))
    lam, f = lam.astype(dtype), f.astype(dtype)
    tails = [row.astype(dtype) for row in tails]
    t = [row[0] for row in tails] + [dtype(0.0)] * (3 - len(tails))
    d_ha = problem.D * ha
    u = np.empty(n + 1, dtype)
    u[0], u[1] = problem.y0, first_step(problem, h, default_start_mode(scheme))
    history = (lam[1] + t[1]) * u[1] + (lam[2] + t[0]) * u[0]
    u[2] = (f[0] + history) / (lam[0] - t[2] + d_ha)
    for m in range(3, n + 1):
        history = np.dot(lam[1 : m + 1], u[m - 1 :: -1])
        for row, head in zip(tails, u[:3]):
            history += row[m - 2] * head
        u[m] = (f[m - 2] + history) / (lam[0] + d_ha)
    return u


def _exponential_sums(monkeypatch):
    """Lag ranges ``(lo, hi)`` of the exponential sums ``solve`` builds from now on.

    A long solve builds one, ``(leaf, n)``, and a marched one none, so the
    list also tells which path each solve took.
    """
    ranges = []
    exponential_sum = relaxation._exponential_sum

    def spy(scheme, alpha, lo, hi):
        ranges.append((lo, hi))
        return exponential_sum(scheme, alpha, lo, hi)

    monkeypatch.setattr(relaxation, "_exponential_sum", spy)
    return ranges


def _leaf_column(scheme, alpha, damping, n):
    """First column of the leaf's lower-triangular Toeplitz matrix, as ``solve`` builds it."""
    lam = -_interior_weights(scheme, alpha, n, alpha_constants(alpha)) / scheme_norm(scheme, alpha)
    d_ha = damping * (1.0 / n) ** alpha
    return np.concatenate(([-lam[0] + d_ha], -lam[1 : relaxation._LEAF]))


class TestCatalog:
    def test_shapes_and_metadata(self):
        problems = equation_catalog(0.4, D=-2.5)
        assert [p.label for p in problems] == ["I", "II", "III", "exp"]
        assert [p.D for p in problems] == [1.0, 1.0, 1.0, -2.5]
        for p in problems:
            assert p.alpha == 0.4
            assert p.y0 == 1.0
            assert p.x_end == 1.0
            assert p.dy0 is not None and p.d2y0 is not None
            assert abs(float(p.exact(0.0)) - 1.0) < 1e-15

    def test_forcing_values(self):
        eq1, eq2, eq3, _ = equation_catalog(0.5)
        assert eq1.forcing(0.0) == pytest.approx(1.0, abs=1e-15)
        assert eq2.forcing(1.0) == pytest.approx(
            math.e + ML_ONE_ONEHALF_AT_1, rel=1e-12
        )
        assert eq3.d2y0 == pytest.approx(-4.0 * math.pi**2, rel=1e-15)

    def test_taylor_metadata(self):
        eq1, eq2, eq3, eq_exp = equation_catalog(0.3)
        assert (eq1.dy0, eq1.d2y0) == (1.0, 2.0)
        assert (eq2.dy0, eq2.d2y0) == (1.0, 1.0)
        assert eq3.dy0 == 0.0
        assert (eq_exp.dy0, eq_exp.d2y0) == (1.0, 1.0)

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_forcing_consistent_with_quadrature(self, index):
        # F - D*y must equal the fractional derivative of the exact solution.
        alpha = 0.3
        problem = equation_catalog(alpha, D=-1.5)[index]
        x = 0.7
        eps = 1e-6

        def fprime(t):
            return (problem.exact(t + eps) - problem.exact(t - eps)) / (2 * eps)

        reference = caputo_quadrature(fprime, alpha, x, tol=1e-10)
        lhs = problem.forcing(x) - problem.D * float(problem.exact(x))
        assert lhs == pytest.approx(reference, rel=1e-7)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            equation_catalog(1.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_forcing_on_array_matches_scalar(self, alpha):
        """A grid of points gives the scalar values bit for bit."""
        grid = np.linspace(0.0, 1.0, 4097)
        for problem in equation_catalog(alpha):
            got = problem.forcing(grid)
            expected = [problem.forcing(x) for x in grid.tolist()]
            assert np.array_equal(got, expected), problem.label
            assert isinstance(problem.forcing(0.5), float)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_forcing_matches_python_float_formulas(self, alpha):
        """Each forcing adds its solution's terms as the formulas say: numpy's
        exp and cos, and problem I's four powers added in order."""
        grid = np.linspace(0.0, 1.0, 4097)
        exp_part = np.exp(grid)
        p1, p2, p3, p4 = (exact_caputo_power(k, alpha, grid) for k in range(1, 5))
        poly = 1.0 + grid * (1.0 + grid * (1.0 + grid * (1.0 + grid)))
        expected = {
            "I": (((p1 + p2) + p3) + p4) + poly,
            "II": exact_caputo_exp(alpha, grid) + exp_part,
            "III": exact_caputo_cos2pix(alpha, grid) + np.cos(2.0 * math.pi * grid),
            "exp": exact_caputo_exp(alpha, grid) - 2.5 * exp_part,
        }
        for problem in equation_catalog(alpha, D=-2.5):
            assert np.array_equal(problem.forcing(grid), expected[problem.label])

    def test_exact_ignores_memory_layout(self):
        # numpy's exp may round a strided array differently from a
        # contiguous one; a solution must not, and neither may a forcing,
        # whose only guard is that each of its terms is elementwise.
        g = np.linspace(0.0, 1.0, 4097)
        square = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
        for problem in equation_catalog(0.5):
            for fn in (problem.exact, problem.forcing):
                assert fn(g[::-1]).tobytes() == fn(g)[::-1].tobytes(), problem.label
                assert fn(square).tobytes() == fn(square.ravel()).tobytes(), problem.label
                assert fn(square.T).tobytes() == fn(square).T.tobytes(), problem.label

    def test_forcing_reads_the_module_derivatives_at_call_time(self, monkeypatch):
        """A rebinding of ``relaxation.exact_caputo_cos2pix`` after the catalog
        is built reaches III's forcing, as a tracer that wraps it needs."""
        eq3 = equation_catalog(0.5)[2]
        calls = []

        def spy(alpha, x):
            calls.append(alpha)
            return exact_caputo_cos2pix(alpha, x)

        monkeypatch.setattr(relaxation, "exact_caputo_cos2pix", spy)
        value = eq3.forcing(0.25)
        assert calls == [0.5]
        assert value == exact_caputo_cos2pix(0.5, 0.25) + eq3.exact(0.25)


class TestProblemValidation:
    def test_exact_must_match_y0(self):
        with pytest.raises(ValueError, match="disagrees"):
            RelaxationProblem(
                alpha=0.5, D=1.0, forcing=lambda x: 0.0, y0=2.0,
                exact=lambda x: np.exp(x),
            )

    def test_interval_positive(self):
        with pytest.raises(ValueError):
            RelaxationProblem(
                alpha=0.5, D=1.0, forcing=lambda x: 0.0, y0=0.0, x_end=0.0
            )

    def test_order_in_range(self):
        with pytest.raises(ValueError):
            RelaxationProblem(alpha=1.2, D=1.0, forcing=lambda x: 0.0, y0=0.0)

    @pytest.mark.parametrize("field", ["D", "y0", "x_end", "dy0", "d2y0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        fields = dict(alpha=0.5, D=1.0, forcing=lambda x: 0.0, y0=0.0, dy0=0.0, d2y0=0.0)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            RelaxationProblem(**{**fields, field: value})


class TestFirstStep:
    def test_constant_fixed_point(self):
        problem = RelaxationProblem(
            alpha=0.5, D=3.0, forcing=lambda x: 3.0 * 7.5, y0=7.5
        )
        assert first_step(problem, 0.01, StartMode.L1Start) == pytest.approx(
            7.5, rel=1e-15
        )

    def test_taylor_value(self):
        eq3 = equation_catalog(0.75)[2]
        got = first_step(eq3, 0.1, StartMode.TaylorStart)
        assert got == pytest.approx(1.0 - 0.02 * math.pi**2, rel=1e-15)

    def test_second_order_accuracy(self):
        eq2 = equation_catalog(0.5)[1]
        for j in range(6):
            h = 0.05 * 2.0**-j
            gap = abs(first_step(eq2, h, StartMode.L1Start) - math.exp(h))
            assert gap < h * h  # observed constant is ~0.16

    def test_missing_metadata(self):
        bare = RelaxationProblem(alpha=0.5, D=1.0, forcing=lambda x: 0.0, y0=0.0)
        with pytest.raises(ValueError, match="dy0"):
            first_step(bare, 0.1, StartMode.TaylorStart)

    def test_rejects_nonpositive_step(self):
        eq1 = equation_catalog(0.5)[0]
        with pytest.raises(ValueError):
            first_step(eq1, 0.0, StartMode.L1Start)

    def test_singular_denominator(self):
        alpha, h = 0.5, 0.25
        bad_d = -1.0 / (math.gamma(1.5) * h**alpha)
        problem = RelaxationProblem(
            alpha=alpha, D=bad_d, forcing=lambda x: 1.0, y0=1.0
        )
        with pytest.raises(SingularDenominatorError):
            first_step(problem, h, StartMode.L1Start)


class TestSolve:
    @pytest.mark.parametrize(
        "scheme,near_field",
        [
            pytest.param(
                s, w, id=s.name if w == DEFAULT_NEAR_FIELD else f"{s.name}-near{w}"
            )
            for w in NEAR_FIELDS
            for s in ALL_SCHEMES
        ],
    )
    def test_matches_stepwise_rebuild(self, scheme, near_field, monkeypatch):
        _near_field(monkeypatch, near_field)
        problem = equation_catalog(0.5)[1]
        start = default_start_mode(scheme)
        for n in (7, 80):  # one below, one above the series crossover
            result = solve(problem, scheme, n, start)
            reference = _naive_solve(problem, scheme, n, start)
            np.testing.assert_allclose(result.u, reference, rtol=0, atol=5e-14)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_first_steps_match_stepwise_rebuild(self, scheme):
        # Steps 2..6, where head and tail overlap; at step 2 the third tail
        # delta of Right3mAlpha lands on lambda_0.
        start = default_start_mode(scheme)
        catalog = equation_catalog(0.5, D=-1.0)
        for problem in (catalog[1], catalog[3]):
            for n in range(2, 7):
                result = solve(problem, scheme, n, start)
                reference = _naive_solve(problem, scheme, n, start)
                np.testing.assert_allclose(result.u, reference, rtol=0, atol=5e-14)

    def test_result_geometry(self):
        problem = equation_catalog(0.25)[0]
        result = solve(problem, SchemeId.L1, 40)
        assert result.n == 40
        assert result.n * result.h == pytest.approx(problem.x_end, rel=1e-12)
        assert result.u[0] == problem.y0
        assert result.max_error >= 0.0
        with pytest.raises(ValueError):
            result.u[3] = 0.0

    # Benchmark levels from the reference tables (printed to 3 significant
    # digits, hence the 2% gate).
    @pytest.mark.parametrize(
        "index,scheme,alpha,expected",
        [
            (0, SchemeId.L1, 0.25, 4.66e-5),
            (2, SchemeId.Mid2, 0.75, 1.178e-4),
        ],
    )
    def test_benchmark_error_levels(self, index, scheme, alpha, expected):
        problem = equation_catalog(alpha)[index]
        result = solve(problem, scheme, 320)
        assert result.max_error == pytest.approx(expected, rel=2e-2)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_constant_solution_fidelity(self, scheme):
        problem = RelaxationProblem(
            alpha=0.3,
            D=2.5,
            forcing=lambda x: 2.5 * 4.0,
            y0=4.0,
            exact=lambda x: np.full_like(np.asarray(x, dtype=float), 4.0),
            dy0=0.0,
            d2y0=0.0,
        )
        result = solve(problem, scheme, 100)
        assert result.max_error <= 1e-10

    @pytest.mark.parametrize(
        "scheme", [SchemeId.L1, SchemeId.Mid2, SchemeId.Right3mAlpha],
        ids=lambda s: s.name,
    )
    def test_residual_consistency(self, scheme):
        problem = equation_catalog(0.5)[1]
        n = 60
        result = solve(problem, scheme, n)
        h, ha = result.h, result.h**problem.alpha
        scale = float(np.max(np.abs(result.u)))
        for m in range(2, n + 1):
            lam = normalized_lambda(build_weights(scheme, problem.alpha, m))
            lhs = (
                lam[0] * result.u[m]
                - float(np.dot(lam[1:], result.u[m - 1 :: -1]))
                + problem.D * ha * result.u[m]
            )
            bound = 1e-10 * (abs(lam[0]) + abs(problem.D) * ha) * scale
            assert abs(lhs - ha * problem.forcing(m * h)) <= bound

    def test_refinement_monotonicity(self):
        problem = equation_catalog(0.5)[1]
        for scheme in HIGH_ORDER:
            errors = [solve(problem, scheme, 20 * 2**j).max_error for j in range(6)]
            assert all(b <= a for a, b in zip(errors, errors[1:])), (scheme, errors)

    @pytest.mark.parametrize(
        "scheme,nominal",
        [
            (SchemeId.L1, 1.5),
            (SchemeId.Mid2mAlpha, 1.5),
            (SchemeId.Right2mAlpha, 1.5),
            (SchemeId.Mid2, 2.0),
            (SchemeId.MidLow, 0.5),
            (SchemeId.RightLow, 0.5),
            (SchemeId.Right3mAlpha, 2.5),
        ],
        ids=lambda v: v.name if isinstance(v, SchemeId) else str(v),
    )
    def test_order_convergence(self, scheme, nominal):
        problem = equation_catalog(0.5)[1]
        coarse = solve(problem, scheme, 20 * 2**6).max_error
        fine = solve(problem, scheme, 20 * 2**7).max_error
        assert math.log2(coarse / fine) == pytest.approx(nominal, abs=0.05)

    def test_degenerate_no_damping(self):
        # With D = 0 the march is an explicit evaluation; it must still
        # agree with the stepwise rebuild and converge to t^2.
        problem = RelaxationProblem(
            alpha=0.5,
            D=0.0,
            forcing=lambda x: exact_caputo_power(2, 0.5, x),
            y0=0.0,
            exact=lambda x: np.asarray(x, dtype=float) ** 2,
            dy0=0.0,
            d2y0=2.0,
        )
        result = solve(problem, SchemeId.Mid2mAlpha, 40)
        reference = _naive_solve(problem, SchemeId.Mid2mAlpha, 40, StartMode.L1Start)
        np.testing.assert_allclose(result.u, reference, rtol=0, atol=5e-14)
        finer = solve(problem, SchemeId.Mid2mAlpha, 160)
        assert finer.max_error < result.max_error

    def test_strong_negative_damping_magnitude(self, monkeypatch):
        # Heavily negative damping destroys the solution without tripping
        # the overflow guard; the trajectory is reported as-is.
        problem = equation_catalog(0.5, D=-7.0)[3]
        for near_field in NEAR_FIELDS:
            _near_field(monkeypatch, near_field)
            result = solve(problem, SchemeId.L1, 320)
            peak = float(np.max(np.abs(result.u)))
            assert 6.7e14 < peak < 6.7e18
            assert not result.diverged
            assert result.max_error > 1e14

    def test_overflow_flags_divergence(self, monkeypatch):
        problem = equation_catalog(0.5, D=-7.0)[3]
        for near_field in NEAR_FIELDS:
            _near_field(monkeypatch, near_field)
            result = solve(problem, SchemeId.L1, 40)
            assert result.diverged
            assert float(np.max(np.abs(result.u))) > 1e30
            assert len(result.u) == 41  # the march still completed

    def test_divergent_runs_raise_no_warnings(self, monkeypatch):
        # The blow-up reaches inf and nan; `diverged` reports it, so numpy
        # must not also warn, on the march or in the leaves.
        ranges = _exponential_sums(monkeypatch)
        exp7, exp8 = equation_catalog(0.3, D=-7.0)[3], equation_catalog(0.3, D=-8.0)[3]
        huge = RelaxationProblem(alpha=0.3, D=-8.0, forcing=lambda x: 0.0, y0=1e300)
        runs = [  # ..., and the step where the run first goes non-finite
            (exp7, DEFAULT_NEAR_FIELD, 640, 468),  # on the march
            (exp8, DEFAULT_NEAR_FIELD, DEFAULT_NEAR_FIELD, 2810),  # in the 128-step leaves
            (huge, DEFAULT_NEAR_FIELD, DEFAULT_NEAR_FIELD, 70),  # in the first leaf
            (exp7, 16, 640, 468),  # in the 16-step leaves
        ]
        for problem, near_field, n, first_nonfinite in runs:
            _near_field(monkeypatch, near_field)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = solve(problem, SchemeId.L1, n)
            assert result.diverged
            assert np.flatnonzero(~np.isfinite(result.u))[0] == first_nonfinite
        assert ranges == [(128, DEFAULT_NEAR_FIELD)] * 2 + [(16, 640)]  # the last three ran leaves

    def test_march_is_the_plain_recipe_bit_for_bit(self):
        # L1, Mid2 and Right3mAlpha carry 1, 2 and 3 tail deltas.  At
        # D = -7 the runs grow past 1e100, and Mid2's reaches inf and nan.
        nonfinite = 0
        for scheme in (SchemeId.L1, SchemeId.Mid2, SchemeId.Right3mAlpha):
            for problem in (equation_catalog(0.3)[1], equation_catalog(0.3, D=-7.0)[3]):
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = _march_recipe(problem, scheme, 300)
                assert solve(problem, scheme, 300).u.tobytes() == expected.tobytes()
                nonfinite += int(np.sum(~np.isfinite(expected)))
        assert nonfinite

    def test_offset_ddot_is_numpys_dot(self):
        # The march's bit identity rests on scipy's BLAS ddot at offsets
        # giving numpy's dot over the same slices; the two link separate
        # BLAS builds, so a platform where they disagree fails here first.
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal(4096), rng.standard_normal(4096 + 9)
        big = 1e307 * np.sign(y) * rng.uniform(0.5, 1.0, y.size)  # partial sums overflow
        y_inf = y.copy()
        y_inf[rng.choice(y.size, 12, replace=False)] = [np.inf, -np.inf] * 6
        got, expected, cases = [], [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for data in (y, big, y_inf):
                for m in range(1, 4096):
                    for off in (0, 1, 9, data.size - m):  # the last as in the march
                        got.append(ddot(x, data, m, 1, 1, off))
                        expected.append(float(np.dot(x[1 : m + 1], data[off : off + m])))
                        cases.append((m, off))
        got, expected = np.array(got), np.array(expected)
        assert np.isinf(expected).any() and np.isnan(expected).any()
        bad = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
        assert not bad.size, (
            f"{bad.size} mismatches; first at (m, offset) = {cases[bad[0]]}: "
            f"ddot {got[bad[0]]!r}, np.dot {expected[bad[0]]!r}"
        )

    @pytest.mark.parametrize(
        "scheme", [SchemeId.L1, SchemeId.Mid2, SchemeId.Right3mAlpha],
        ids=lambda s: s.name,
    )
    def test_leaf_path_matches_plain_march(self, scheme, monkeypatch):
        # A near field wider than the grid turns leaves and far field off.
        # Leaves run from step 3 and read every lag from 128 on from the
        # exponential states: 32 full leaves and 126 steps of a 33rd at
        # n = 4224, 47 and 127 at n = 6145.  Rounding grows like n^alpha, so
        # the gap is also gated in units of n^alpha ulps of the solution.
        ranges = _exponential_sums(monkeypatch)
        for n in (4224, 6145):
            for alpha in (0.3, 0.7):
                for problem in equation_catalog(alpha, D=-1.0)[1:]:
                    monkeypatch.setattr(relaxation, "_NEAR_FIELD", DEFAULT_NEAR_FIELD)
                    leaves = solve(problem, scheme, n).u
                    assert ranges == [(128, n)]
                    monkeypatch.setattr(relaxation, "_NEAR_FIELD", n + 1)
                    march = solve(problem, scheme, n).u
                    assert ranges == [(128, n)]
                    ranges.clear()
                    gap = np.abs(leaves - march)
                    assert np.all(gap <= 5e-13 * np.maximum(1.0, np.abs(march))), (
                        n, alpha, problem.label, float(np.max(gap)),
                    )
                    ulps = np.max(gap) / (n**alpha * np.spacing(np.max(np.abs(march))))
                    assert ulps <= 4.0, (n, alpha, problem.label, float(ulps))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double"
    )
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize(
        "scheme", [SchemeId.L1, SchemeId.Mid2, SchemeId.Right3mAlpha], ids=lambda s: s.name
    )
    def test_matches_long_double_reference_march(self, scheme, alpha, monkeypatch):
        # The reference reads solve's float64 inputs and sums in long double,
        # so the gap is solve's own rounding.  It grows like n^alpha, and for
        # D < 0 the problem amplifies it by up to G = E_alpha(|D| x_end^alpha):
        # 11.8 at alpha 0.2.  The march runs at 160 and 2560 steps, the
        # leaves at 6145.  Measured worst: 1.13 units (II, Mid2, alpha 0.2,
        # n = 2560); the leaves 0.62.
        mp = pytest.importorskip("mpmath")
        ranges = _exponential_sums(monkeypatch)
        for problem in equation_catalog(alpha, D=-1.0):
            growth = 1.0
            if problem.D < 0.0:
                z = mp.mpf(-problem.D * problem.x_end**alpha)
                growth = float(mp.nsum(lambda k: z**k / mp.gamma(alpha * k + 1), [0, mp.inf]))
            for n in (160, 2560, 6145):
                reference = _march_recipe(problem, scheme, n, np.longdouble)
                gap = float(np.max(np.abs(solve(problem, scheme, n).u - reference)))
                unit = growth * n**alpha * np.spacing(float(np.max(np.abs(reference))))
                assert gap <= 2.0 * unit, (problem.label, n, gap / unit)
        assert ranges == [(DEFAULT_LEAF, 6145)] * 4

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_leaf_edges_match_stepwise_rebuild(self, scheme, monkeypatch):
        # Width 16 makes the leaves 16 steps long, starting at step 3, for
        # every solve of 16 steps or more: 14 rows at n = 16, one full leaf
        # at 18 and one more row at 19; the leaf from 51 has 14 to 16 rows at
        # 64 to 66, and the one from 67 one row at 67 and 14 at 80.
        _near_field(monkeypatch, 16)
        ranges = _exponential_sums(monkeypatch)
        problem = equation_catalog(0.5)[1]
        start = default_start_mode(scheme)
        solve(problem, scheme, 15)
        assert ranges == []
        sizes = (16, 18, 19, 64, 65, 66, 67, 79, 80)
        for n in sizes:
            result = solve(problem, scheme, n, start)
            reference = _naive_solve(problem, scheme, n, start)
            np.testing.assert_allclose(result.u, reference, rtol=0, atol=5e-14)
        assert ranges == [(16, n) for n in sizes]

    def test_exponential_sum_against_mpmath(self):
        # The far field's kernel for lags [128, n] at n = 40960 and 2^20, and
        # for width 16's [16, 80]: the first 40 lags and 60 spread to the last.
        # The node counts read 69 and 82: the nodes below 0.01/n thin out
        # double-exponentially.
        mp = pytest.importorskip("mpmath")
        formulas = {
            SchemeId.L1: lambda k, a: (k + 1) ** (1 - a) - 2 * k ** (1 - a) + (k - 1) ** (1 - a),
            SchemeId.MidLow: lambda k, a: (k + 1) ** -a - (k - 1) ** -a,
            SchemeId.RightLow: lambda k, a: k ** (-1 - a),
        }
        worst = 0.0
        with mp.workdps(30):
            for lo, hi in [(128, 40960), (128, 2**20), (16, 80)]:
                spread = np.geomspace(lo, hi, 60).astype(int)
                ks = np.unique(np.concatenate((np.arange(lo, lo + 40), spread, [hi])))
                for alpha in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                    for scheme, formula in formulas.items():
                        s, c = relaxation._exponential_sum(scheme, alpha, lo, hi)
                        got = np.exp(-np.outer(ks, s)) @ c
                        for k, value in zip(ks.tolist(), got.tolist()):
                            ref = formula(mp.mpf(k), mp.mpf(alpha))
                            worst = max(worst, float(abs((value - ref) / ref)))
        assert relaxation._exponential_sum(SchemeId.L1, 0.5, 128, 40960)[0].size <= 75
        assert relaxation._exponential_sum(SchemeId.L1, 0.5, 128, 2**20)[0].size <= 90
        # Measured worst: 4.93e-15 (the right sum at alpha 0.99; 4.87e-15 at
        # 0.9, 1.11e-15 at 0.01), the trapezoidal rule's own error at step
        # 0.25, not rounding.
        assert worst <= 1.1 * 4.79e-15, worst

    def test_no_far_field_below_the_first_leaf(self, monkeypatch):
        # The march sums every lag directly, so a solve shorter than the near
        # field, which has no leaves, builds no exponential sum; a longer one
        # builds one, for the lags from 128 to n.
        ranges = _exponential_sums(monkeypatch)
        problem = equation_catalog(0.5)[1]
        solve(problem, SchemeId.L1, DEFAULT_NEAR_FIELD - 1)
        assert ranges == []
        solve(problem, SchemeId.L1, DEFAULT_NEAR_FIELD + 64)
        assert ranges == [(128, DEFAULT_NEAR_FIELD + 64)]

    def test_narrow_march_sums_every_lag(self, monkeypatch):
        # Under width 16, a 15-step solve is the march: each of its steps
        # sums every lag with one ddot.  A 300-step one has no march: it
        # calls no ddot, and only its leaves read the exponential states.
        _near_field(monkeypatch, 16)
        lengths = []

        def spy(x, y, n, *args):
            lengths.append(n)
            return ddot(x, y, n, *args)

        monkeypatch.setattr(scipy.linalg.blas, "ddot", spy)
        ranges = _exponential_sums(monkeypatch)
        solve(equation_catalog(0.5)[1], SchemeId.L1, 15)
        assert lengths == list(range(3, 16))
        assert ranges == []
        solve(equation_catalog(0.5)[1], SchemeId.L1, 300)
        assert lengths == list(range(3, 16))
        assert ranges == [(16, 300)]

    @pytest.mark.parametrize("damping", [1.0, -1.0, -8.0])
    @pytest.mark.parametrize(
        "scheme", [SchemeId.L1, SchemeId.Mid2, SchemeId.Right3mAlpha], ids=lambda s: s.name
    )
    def test_leaf_inverse_matches_forward_substitution(self, scheme, damping):
        # A leaf's steps are one product with the inverse of its matrix.  The
        # product rounds by up to about eps * (|tinv| @ |b|) in each entry,
        # so the gap to mpmath's forward substitution is gated in that unit.
        mp = pytest.importorskip("mpmath")
        col = _leaf_column(scheme, 0.3, damping, 6145)
        tinv = relaxation._leaf_inverse(col)
        b = np.random.default_rng(11).standard_normal(col.size)
        with mp.workdps(30):
            ref = []
            for i, value in enumerate(b.tolist()):
                acc = mp.mpf(value) - mp.fsum(mp.mpf(float(col[i - j])) * ref[j] for j in range(i))
                ref.append(acc / mp.mpf(float(col[0])))
        gap = np.abs(tinv @ b - np.array(ref, dtype=float))
        units = float(np.max(gap / (np.finfo(float).eps * (np.abs(tinv) @ np.abs(b)))))
        # 1.1 times the measured worst (Right3mAlpha, D = -8); one float
        # refinement step with the residual e_0 - col * inv measured 2.66.
        assert units <= 1.1 * 1.52, units

    @pytest.mark.parametrize("damping", [1.0, -1.0, -8.0])
    @pytest.mark.parametrize(
        "scheme", [SchemeId.L1, SchemeId.Mid2, SchemeId.Right3mAlpha], ids=lambda s: s.name
    )
    def test_folded_leaf_matches_mpmath(self, scheme, damping):
        # A leaf's steps are one product, near @ [b; state; prev], with near
        # folded from the inverse, the exponential states' rows out and the
        # slab of weights for the 127 lags before the leaf.  The gap to
        # mpmath's forward substitution of b + out state + slab prev is gated
        # in units of eps * (|tinv| @ (|b| + |out| |state| + |slab| |prev|)).
        mp = pytest.importorskip("mpmath")
        alpha, n, leaf = 0.3, 6145, relaxation._LEAF
        norm = scheme_norm(scheme, alpha)
        lam = -_interior_weights(scheme, alpha, n, alpha_constants(alpha)) / norm
        col = _leaf_column(scheme, alpha, damping, n)
        s, weights = relaxation._exponential_sum(scheme, alpha, leaf, n)
        near = relaxation._leaf_operator(lam, col[0], s, -weights / norm)
        k = np.arange(leaf)
        out = np.exp(-np.outer(k, s)) * (-weights / norm)
        slab = lam[leaf - 1 + np.subtract.outer(k, k[:-1])]
        rng = np.random.default_rng(11)
        b, prev = rng.standard_normal(leaf), rng.standard_normal(leaf - 1)
        # The states of a seeded history u_j, j <= lo - leaf, as a solve carries them.
        state = np.exp(-np.outer(s, np.arange(leaf, n))) @ rng.uniform(1.0, 2.0, n - leaf)
        with mp.workdps(30):
            ref = []
            for i in range(leaf):
                acc = mp.mpf(float(b[i])) + mp.fdot(out[i].tolist(), state.tolist())
                acc += mp.fdot(slab[i].tolist(), prev.tolist())
                acc -= mp.fdot(col[i:0:-1].tolist(), ref)
                ref.append(acc / mp.mpf(float(col[0])))
        gap = np.abs(near @ np.concatenate((b, state, prev)) - np.array(ref, dtype=float))
        scale = np.abs(b) + np.abs(out) @ np.abs(state) + np.abs(slab) @ np.abs(prev)
        units = float(np.max(gap / (np.finfo(float).eps * (np.abs(near[:, :leaf]) @ scale))))
        # 1.1 times the measured worst (L1, D = -1).  The rounding is the one
        # long product's: near built in long double reads the same worst, and
        # the three products tinv @ (b + out @ state + slab @ prev) read 1.34.
        assert units <= 1.1 * 2.27, units

    def test_far_field_leaves_no_reference_cycles(self):
        # A cycle would keep every array of the solve alive until the
        # collector next runs, which shows as peak memory on long solves.
        problem = RelaxationProblem(alpha=0.5, D=1.0, forcing=lambda x: 1.0, y0=0.0)
        gc.collect()
        gc.disable()
        try:
            solve(problem, SchemeId.L1, DEFAULT_NEAR_FIELD + 1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_forcing_evaluated_once_on_grid(self):
        shapes = []

        def forcing(x):
            shapes.append(np.shape(x))
            return 1.0

        problem = RelaxationProblem(alpha=0.5, D=1.0, forcing=forcing, y0=0.0)
        solve(problem, SchemeId.L1, 50)
        assert shapes == [(), (49,)]

    def test_scalar_only_forcing_raises(self):
        problem = RelaxationProblem(alpha=0.5, D=1.0, forcing=math.exp, y0=1.0)
        with pytest.raises(TypeError):
            solve(problem, SchemeId.L1, 16)

    def test_forcing_shape_mismatch_raises(self):
        problem = RelaxationProblem(
            alpha=0.5,
            D=1.0,
            forcing=lambda x: np.ones(3) if np.ndim(x) else 1.0,
            y0=0.0,
        )
        with pytest.raises(ValueError, match="shaped like its argument"):
            solve(problem, SchemeId.L1, 16)

    @pytest.mark.parametrize("n", [300, DEFAULT_NEAR_FIELD])
    def test_non_finite_forcing_raises(self, n):
        # An inf at x = 200h would reach the march's step 200 but, through
        # the zeros of a leaf's inverse (0 * inf), the leaf's earlier steps
        # from 131; either way it raises before any step, naming the point.
        h = 1.0 / n
        spike = RelaxationProblem(
            alpha=0.5, D=1.0, forcing=lambda x: np.where(x == 200 * h, np.inf, 1.0), y0=0.0
        )
        with pytest.raises(ValueError, match=f"F\\({200 * h!r}\\) = inf"):
            solve(spike, SchemeId.L1, n)
        # The implicit start reads F(h) on its own; the Taylor start does not.
        start = RelaxationProblem(
            alpha=0.5, D=1.0, forcing=lambda x: np.where(x == h, np.nan, 1.0), y0=0.0,
            dy0=0.0, d2y0=0.0,
        )
        with pytest.raises(ValueError, match=f"F\\({h!r}\\) = nan"):
            solve(start, SchemeId.L1, n, StartMode.L1Start)
        with pytest.raises(ValueError, match="must be finite"):
            first_step(start, h, StartMode.L1Start)
        assert first_step(start, h, StartMode.TaylorStart) == 0.0

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            solve(equation_catalog(0.5)[0], SchemeId.L1, 1)

    def test_singular_denominator_guard(self):
        alpha = 0.5
        n = 4
        h = 1.0 / n
        lam0 = normalized_lambda(build_weights(SchemeId.L1, alpha, 2))[0]
        problem = RelaxationProblem(
            alpha=alpha,
            D=-lam0 / h**alpha,
            forcing=lambda x: 1.0,
            y0=1.0,
            dy0=0.0,
            d2y0=0.0,
        )
        with pytest.raises(SingularDenominatorError):
            solve(problem, SchemeId.L1, n, StartMode.TaylorStart)

    @settings(deadline=None, max_examples=25)
    @given(
        a=st.floats(min_value=-2.0, max_value=2.0),
        b=st.floats(min_value=-2.0, max_value=2.0),
        n=st.integers(min_value=2, max_value=30),
    )
    def test_linearity_of_solution_map(self, a, b, n):
        # The scheme is linear: solving a*F1 + b*F2 with matching data must
        # give a*u1 + b*u2 exactly (up to roundoff).
        alpha = 0.4
        eq1, eq2 = equation_catalog(alpha)[:2]
        combined = RelaxationProblem(
            alpha=alpha,
            D=1.0,
            forcing=lambda x: a * eq1.forcing(x) + b * eq2.forcing(x),
            y0=a * eq1.y0 + b * eq2.y0,
        )
        u1 = solve(eq1, SchemeId.L1, n).u
        u2 = solve(eq2, SchemeId.L1, n).u
        u = solve(combined, SchemeId.L1, n).u
        np.testing.assert_allclose(u, a * u1 + b * u2, rtol=0, atol=1e-12)


class TestStability:
    def test_positive_damping(self):
        problem = equation_catalog(0.6, D=1.0)[3]
        verdict = stability_check(problem, SchemeId.L1, 320)
        assert verdict is StabilityVerdict.GuaranteedConvergent

    @pytest.mark.parametrize(
        "scheme", [SchemeId.L1, SchemeId.Mid2mAlpha, SchemeId.Right2mAlpha],
        ids=lambda s: s.name,
    )
    def test_mildly_negative_damping(self, scheme):
        # min over m of m^alpha * lambda_m tends to 1/Gamma(1-alpha), which
        # is ~0.45 at alpha = 0.6: damping above that stays certified.
        problem = equation_catalog(0.6, D=-0.3)[3]
        verdict = stability_check(problem, scheme, 320)
        assert verdict is StabilityVerdict.ConditionallyConvergent

    @pytest.mark.parametrize("damping", [-1.0, -7.0])
    def test_strongly_negative_damping(self, damping):
        problem = equation_catalog(0.6, D=damping)[3]
        verdict = stability_check(problem, SchemeId.L1, 320)
        assert verdict is StabilityVerdict.OutsideTheory

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_verdict_flips_at_stencil_bound(self, alpha):
        # Oracle: the bound read off full stencils, one build_weights call
        # per m.  Those share _tail_deltas with stability_check, so this
        # gates the vectorized minimum; test_stencil_tails_against_mpmath
        # gates the tails.  The minimum sits at m = 200 for most schemes.
        n, x_end = 200, 2.0

        def verdict(scheme, damping):
            problem = RelaxationProblem(
                alpha=alpha, D=damping, forcing=lambda x: 0.0, y0=0.0, x_end=x_end
            )
            return stability_check(problem, scheme, n)

        for scheme in ALL_SCHEMES:
            bound = min(
                m**alpha * normalized_lambda(build_weights(scheme, alpha, m))[m]
                for m in range(2, n + 1)
            )
            edge = -bound / x_end**alpha
            inside = StabilityVerdict.ConditionallyConvergent
            outside = StabilityVerdict.OutsideTheory
            if bound > 0.0:
                assert verdict(scheme, edge * (1 - 1e-6)) is inside, scheme
                assert verdict(scheme, edge * (1 + 1e-6)) is outside, scheme
            else:
                assert verdict(scheme, -1e-9) is outside, scheme

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_prefix_verdict_matches_full_scan(self, alpha):
        """The 64-step prefix settles only verdicts the full scan gives.

        Recipe: the full scan over 2 <= m <= n.  D runs over its edge, one
        float either side of it, and -1, which a failing prefix settles
        for most schemes.  The prefix's values are the scan's first 63,
        byte for byte, so its minimum is never below the scan's.
        """
        n, x_end = 4096, 2.0
        c = alpha_constants(alpha)

        def bound_terms(scheme, m_max):
            ms = np.arange(2, m_max + 1)
            interior = _interior_weights(scheme, alpha, m_max, c)
            w_last = interior[2:] + _tail_deltas(scheme, alpha, ms, interior)[0]
            return ms**alpha * (-w_last / scheme_norm(scheme, alpha))

        def full_scan(damping, lower):
            if damping > 0.0:
                return StabilityVerdict.GuaranteedConvergent
            if damping < 0.0 and -lower / x_end**alpha < damping:
                return StabilityVerdict.ConditionallyConvergent
            return StabilityVerdict.OutsideTheory

        for scheme in ALL_SCHEMES:
            terms = bound_terms(scheme, n)
            assert bound_terms(scheme, 64).tobytes() == terms[:63].tobytes(), scheme
            lower = float(np.min(terms))
            edge = -lower / x_end**alpha
            for damping in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf), -1.0):
                problem = RelaxationProblem(
                    alpha=alpha, D=float(damping), forcing=lambda x: 0.0, y0=0.0, x_end=x_end
                )
                verdict = stability_check(problem, scheme, n)
                assert verdict is full_scan(damping, lower), (scheme, damping)

    def test_zero_damping(self):
        problem = RelaxationProblem(
            alpha=0.5, D=0.0, forcing=lambda x: 0.0, y0=0.0
        )
        verdict = stability_check(problem, SchemeId.L1, 50)
        assert verdict is StabilityVerdict.OutsideTheory

    @pytest.mark.parametrize("damping", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("n", [-7, 0, 1])
    def test_rejects_fewer_than_two_steps(self, damping, n):
        """Every verdict needs the n that solve accepts, whatever the damping."""
        problem = equation_catalog(0.5, D=damping)[3]
        with pytest.raises(ValueError) as checked:
            stability_check(problem, SchemeId.L1, n)
        with pytest.raises(ValueError) as solved:
            solve(problem, SchemeId.L1, n)
        assert str(checked.value) == str(solved.value)

    def test_advisory_only(self):
        # An OutsideTheory verdict must not prevent the solve itself.
        problem = equation_catalog(0.5, D=-7.0)[3]
        assert stability_check(problem, SchemeId.L1, 40) is StabilityVerdict.OutsideTheory
        assert solve(problem, SchemeId.L1, 40).diverged


class TestLabels:
    def test_all_spellings(self):
        assert NS_LABELS["NS[1]"] == (SchemeId.L1, StartMode.L1Start)
        assert NS_LABELS["NS[12]"] == NS_LABELS["NS[40]"]
        assert NS_LABELS["NS[13]"] == NS_LABELS["NS[45]"]
        assert NS_LABELS["NS[13]"][1] is StartMode.TaylorStart
        assert NS_LABELS["NS[20]"][0] is SchemeId.MidLow
        assert NS_LABELS["NS[34]"][0] is SchemeId.RightLow

    def test_default_start_modes(self):
        assert default_start_mode(SchemeId.Right3mAlpha) is StartMode.TaylorStart
        assert default_start_mode(SchemeId.L1) is StartMode.L1Start
