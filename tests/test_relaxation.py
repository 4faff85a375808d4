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
from scipy.fft import irfft, next_fast_len, rfft
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

#: Near-field widths the far-field tests run under: the solver's default,
#: which leaves these short solves on the plain march, and 16, which sends
#: every lag from 16 on through the FFT far field and every step from 64 on
#: through 16-step leaves.  A near field below 512 is also the leaves'
#: direct width; the default one's leaves sum only lags below 512 directly.
DEFAULT_NEAR_FIELD = relaxation._NEAR_FIELD
NEAR_FIELDS = [DEFAULT_NEAR_FIELD, 16]

#: First step of the leaf path at the default width: the first multiple of
#: the 64-step leaf at or past the near field and the series crossover.
FIRST_LEAF = 4096

# E_{1,1.5}(1), mpmath mp.dps=40
ML_ONE_ONEHALF_AT_1 = 2.290698252303238


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


def _march_recipe(problem, scheme, n):
    """The march's float recipe below the first leaf, transcribed step by step.

    Step m takes one ``np.dot`` over the reversed history ``u[m-1::-1]``,
    adds each tail term ``t_j[m] * u_j`` in turn, then divides once.
    """
    alpha, h = problem.alpha, problem.x_end / n
    ha, norm = h**alpha, scheme_norm(scheme, alpha)
    lam = -_interior_weights(scheme, alpha, n, alpha_constants(alpha)) / norm
    lam[0] = -lam[0]
    tails = [-d / norm for d in _tail_deltas(scheme, alpha, np.arange(2, n + 1), n)]
    t = [row[0] for row in tails] + [0.0] * (3 - len(tails))
    f = np.broadcast_to(problem.forcing(np.arange(2, n + 1) * h), (n - 1,))
    u = np.empty(n + 1)
    u[0], u[1] = problem.y0, first_step(problem, h, default_start_mode(scheme))
    history = (lam[1] + t[1]) * u[1] + (lam[2] + t[0]) * u[0]
    u[2] = (ha * f[0] + history) / (lam[0] - t[2] + problem.D * ha)
    for m in range(3, n + 1):
        history = float(np.dot(lam[1 : m + 1], u[m - 1 :: -1]))
        for row, head in zip(tails, u[:3]):
            history += row[m - 2] * head
        u[m] = (ha * f[m - 2] + history) / (lam[0] + problem.D * ha)
    return u


def _leaf_rows(monkeypatch):
    """Row counts of the leaf solves that ``solve`` runs from now on."""
    rows = []

    def spy(a, b, **kwargs):
        rows.append(len(b))
        return scipy.linalg.lapack.dtrtrs(a, b, **kwargs)

    monkeypatch.setattr(relaxation, "dtrtrs", spy)
    return rows


def _far_field_nodes(monkeypatch):
    """``(lo, hi)`` of the far-field nodes that ``solve`` adds from now on."""
    nodes = []
    add_far_field = relaxation._add_far_field

    def spy(far, u, kernel, spectra, lo, mid, hi, width):
        nodes.append((lo, hi))
        add_far_field(far, u, kernel, spectra, lo, mid, hi, width)

    monkeypatch.setattr(relaxation, "_add_far_field", spy)
    return nodes


def _leaf_matrix(scheme, alpha, damping, n):
    """The leaf's lower-triangular Toeplitz matrix, built as ``solve`` builds it."""
    lam = -_interior_weights(scheme, alpha, n, alpha_constants(alpha)) / scheme_norm(scheme, alpha)
    d_ha = damping * (1.0 / n) ** alpha
    return scipy.linalg.toeplitz(np.concatenate(([-lam[0] + d_ha], -lam[1:64])), np.zeros(64))


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
        """Each forcing adds its solution's terms as the scalar formulas did:
        libm exp and cos per point, and math.fsum over problem I's powers."""
        grid = np.linspace(0.0, 1.0, 4097)
        points = grid.tolist()
        exp_part = np.array([math.exp(x) for x in points])
        powers = [exact_caputo_power(k, alpha, grid).tolist() for k in range(1, 5)]
        poly = 1.0 + grid * (1.0 + grid * (1.0 + grid * (1.0 + grid)))
        expected = {
            "I": np.array([math.fsum(terms) for terms in zip(*powers)]) + poly,
            "II": exact_caputo_exp(alpha, grid) + exp_part,
            "III": exact_caputo_cos2pix(alpha, grid)
            + np.array([math.cos(2.0 * math.pi * x) for x in points]),
            "exp": exact_caputo_exp(alpha, grid) - 2.5 * exp_part,
        }
        for problem in equation_catalog(alpha, D=-2.5):
            assert np.array_equal(problem.forcing(grid), expected[problem.label])


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
        monkeypatch.setattr(relaxation, "_NEAR_FIELD", near_field)
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
            monkeypatch.setattr(relaxation, "_NEAR_FIELD", near_field)
            result = solve(problem, SchemeId.L1, 320)
            peak = float(np.max(np.abs(result.u)))
            assert 6.7e14 < peak < 6.7e18
            assert not result.diverged
            assert result.max_error > 1e14

    def test_overflow_flags_divergence(self, monkeypatch):
        problem = equation_catalog(0.5, D=-7.0)[3]
        for near_field in NEAR_FIELDS:
            monkeypatch.setattr(relaxation, "_NEAR_FIELD", near_field)
            result = solve(problem, SchemeId.L1, 40)
            assert result.diverged
            assert float(np.max(np.abs(result.u))) > 1e30
            assert len(result.u) == 41  # the march still completed

    def test_divergent_runs_raise_no_warnings(self, monkeypatch):
        # The blow-up reaches inf and nan; `diverged` reports it, so numpy
        # must not also warn, on the march or in the leaves.
        rows = _leaf_rows(monkeypatch)
        runs = [
            (-7.0, DEFAULT_NEAR_FIELD, 640),
            (-8.0, DEFAULT_NEAR_FIELD, FIRST_LEAF),  # inf before the first leaf
            (-7.0, 16, 640),
        ]
        for damping, near_field, n in runs:
            problem = equation_catalog(0.3, D=damping)[3]
            monkeypatch.setattr(relaxation, "_NEAR_FIELD", near_field)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = solve(problem, SchemeId.L1, n)
            assert result.diverged
            assert not np.all(np.isfinite(result.u))
        assert rows  # the leaf path ran

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
        # At the second n some far-field nodes lie wholly past the march,
        # so leaves reach later leaves through the FFT.
        layouts = {
            FIRST_LEAF + 2 * 64: [64, 64, 1],  # two full leaves and one step of a third
            FIRST_LEAF + 32 * 64 + 1: [64] * 32 + [2],
        }
        rows = _leaf_rows(monkeypatch)
        for n, layout in layouts.items():
            for alpha in (0.3, 0.7):
                for problem in equation_catalog(alpha, D=-1.0)[1:]:
                    monkeypatch.setattr(relaxation, "_NEAR_FIELD", DEFAULT_NEAR_FIELD)
                    leaves = solve(problem, scheme, n).u
                    assert rows == layout
                    monkeypatch.setattr(relaxation, "_NEAR_FIELD", n + 1)
                    march = solve(problem, scheme, n).u
                    assert rows == layout
                    rows.clear()
                    gap = np.abs(leaves - march)
                    assert np.all(gap <= 5e-13 * np.maximum(1.0, np.abs(march))), (
                        n, alpha, problem.label, float(np.max(gap)),
                    )

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_leaf_edges_match_stepwise_rebuild(self, scheme, monkeypatch):
        # Width 16 makes the leaves 16 steps long, starting at step 64.
        monkeypatch.setattr(relaxation, "_NEAR_FIELD", 16)
        rows = _leaf_rows(monkeypatch)
        problem = equation_catalog(0.5)[1]
        start = default_start_mode(scheme)
        solve(problem, scheme, 63)
        assert rows == []
        for n in (64, 65, 79, 80):
            result = solve(problem, scheme, n, start)
            reference = _naive_solve(problem, scheme, n, start)
            np.testing.assert_allclose(result.u, reference, rtol=0, atol=5e-14)
        assert rows == [1, 2, 16, 16, 1]

    @pytest.mark.parametrize("n,width,align", [(200, 16, 16), (300, 16, 8), (1000, 64, 64)])
    def test_far_field_splits_cover_far_pairs_once(self, n, width, align):
        splits = relaxation._far_field_splits(n, width, align)
        assert all(mid % align == 0 for mid in splits)
        cover = np.zeros((n + 1, n + 1), dtype=int)
        for mid, (lo, hi) in splits.items():
            assert lo < mid < hi
            cover[mid:hi, lo:mid] += 1
        m, j = np.indices(cover.shape)
        assert np.all(cover[m - j >= width] == 1)
        assert np.all(cover[m < j] == 0)

    def test_no_far_field_below_the_first_leaf(self, monkeypatch):
        # The march sums every lag directly, so a far-field node wholly
        # below the first leaf would be an FFT nobody reads.
        nodes = _far_field_nodes(monkeypatch)
        problem = equation_catalog(0.5)[1]
        solve(problem, SchemeId.L1, FIRST_LEAF - 1)
        assert nodes == []
        solve(problem, SchemeId.L1, FIRST_LEAF + 64)
        assert nodes and all(hi > FIRST_LEAF for _, hi in nodes)
        nodes.clear()
        # Lags from 512 on go through the far field, so leaves feed leaves.
        solve(problem, SchemeId.L1, FIRST_LEAF + 32 * 64 + 1)
        assert any(lo >= FIRST_LEAF for lo, _ in nodes)

    def test_narrow_march_sums_every_lag(self, monkeypatch):
        # Width 16 puts the first leaf at step 64, so the march passes the
        # near field: each of its steps still sums every lag with one ddot,
        # and no far-field node that ends at or before step 64 is evaluated.
        monkeypatch.setattr(relaxation, "_NEAR_FIELD", 16)
        lengths = []

        def spy(x, y, n, *args):
            lengths.append(n)
            return ddot(x, y, n, *args)

        monkeypatch.setattr(relaxation, "ddot", spy)
        nodes = _far_field_nodes(monkeypatch)
        solve(equation_catalog(0.5)[1], SchemeId.L1, 300)
        assert lengths == list(range(3, 64))
        assert nodes and all(hi > 64 for _, hi in nodes)

    @pytest.mark.parametrize(
        "scheme,damping", [(SchemeId.L1, -1.0), (SchemeId.Mid2, 1.0), (SchemeId.Right3mAlpha, -5.0)],
        ids=lambda v: v.name if isinstance(v, SchemeId) else str(v),
    )
    def test_leaf_dtrtrs_is_solve_triangular(self, scheme, damping):
        # The leaves call LAPACK dtrtrs on the transposed (Fortran-ordered)
        # matrix with trans=1, the call solve_triangular makes internally;
        # the two must agree bit for bit, overflow, inf and nan included.
        tri = _leaf_matrix(scheme, 0.3, damping, FIRST_LEAF + 32 * 64 + 1)
        rng = np.random.default_rng(11)
        normal = rng.standard_normal(64)
        big = 1e307 * np.sign(normal) * rng.uniform(0.5, 1.0, 64)  # solves overflow
        special = normal.copy()
        special[rng.choice(64, 9, replace=False)] = [np.inf, -np.inf, np.nan] * 3
        nonfinite = 0
        for b in (normal, big, special):
            for rows in range(1, 65):
                expected = scipy.linalg.solve_triangular(
                    tri[:rows, :rows], b[:rows], lower=True, check_finite=False
                )
                got, info = relaxation.dtrtrs(
                    tri[:rows, :rows].T, b[:rows].copy(), lower=0, trans=1, overwrite_b=1
                )
                assert info == 0
                assert got.tobytes() == expected.tobytes(), (rows, b[0])
                nonfinite += int(np.sum(~np.isfinite(expected)))
        assert nonfinite

    def test_shared_spectrum_is_the_per_node_transform(self):
        # Every node of one length reuses the first one's kernel transform;
        # the far field must equal the per-node rfft recipe bit for bit.
        n, width = FIRST_LEAF + 32 * 64 + 1, 512
        rng = np.random.default_rng(5)
        u = rng.standard_normal(n + 1)
        kernel = np.zeros(n + 1)
        kernel[width:] = rng.standard_normal(n + 1 - width)
        splits = relaxation._far_field_splits(n, width, 64)
        spectra = {}
        for mid, (lo, hi) in sorted(splits.items()):
            got = np.zeros(n + 1)
            relaxation._add_far_field(got, u, kernel, spectra, lo, mid, hi, width)
            size = hi - lo
            nfft = next_fast_len(size, real=True)
            expected = np.zeros(n + 1)
            start = max(mid, lo + width)
            spec = rfft(u[lo:mid], nfft) * rfft(kernel[:size], nfft)
            expected[start:hi] += irfft(spec, nfft)[start - lo : size]
            assert got.tobytes() == expected.tobytes(), (lo, mid, hi)
        sizes = {hi - lo for lo, hi in splits.values()}
        assert sorted(spectra) == sorted(sizes) and len(sizes) < len(splits)

    def test_kernel_transformed_once_per_length(self, monkeypatch):
        # Each node transforms its half of u; the kernel is transformed once
        # per distinct node length (13 for the 117 nodes at n = 40960).
        calls = []

        def spy(x, *args, **kwargs):
            calls.append(len(x))
            return rfft(x, *args, **kwargs)

        monkeypatch.setattr(relaxation, "rfft", spy)
        nodes = _far_field_nodes(monkeypatch)
        solve(equation_catalog(0.5)[1], SchemeId.L1, 40960)
        lengths = {hi - lo for lo, hi in nodes}
        assert (len(nodes), len(lengths)) == (117, 13)
        assert len(calls) == len(nodes) + len(lengths)

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
