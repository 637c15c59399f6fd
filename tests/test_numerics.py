import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import roots_hermitenorm

from gfwiretap.errors import BracketError, NumericalError
from gfwiretap.numerics import (
    RULE_HALF_WIDTH,
    RULE_STEP,
    _brent_root,
    _trapezoid,
    TIE_TOL,
    _minimize_with_diagnostics,
    bisect_transition,
    chebyshev_coefficients,
    chebyshev_points,
    chebyshev_series,
    default_rule,
    gauss_expectation,
    log_cosh,
)
from oracles import log_cosh_reference, minimize_reference, scalar_channel_mp

# 1e7-sample Monte Carlo reference for E[log cosh(2 + sqrt(2) w)], w ~ N(0,1),
# generated once with numpy PCG64 seed 20260808.
MC_LOGCOSH_MEAN = 1.500192289632
MC_LOGCOSH_SE = 3.650e-04


def double_factorial(n: int) -> float:
    return float(math.prod(range(n, 0, -2))) if n > 0 else 1.0


def moment(deg: int) -> float:
    """``E[w**deg]`` for ``w ~ N(0, 1)``."""
    return 0.0 if deg % 2 else double_factorial(deg - 1)


def trapezoid_pair(step, half_width):
    """``(nodes, weights)`` of the trapezoidal rule of ``step`` on
    ``|w| <= half_width``, built here rather than by the package."""
    n = math.floor(half_width / step)
    nodes = step * np.arange(-n, n + 1)
    weights = np.exp(-0.5 * nodes**2)
    return nodes, weights / weights.sum()


#: The default rule's step out to |w| = 12, and a nine-node rule of step 0.5.
WIDE_RULE = trapezoid_pair(RULE_STEP, 12.0)
SMALL_RULE = trapezoid_pair(0.5, 2.0)


def package_rules():
    """The two rules the package builds: the default one and, for its
    self-check, the half-step one."""
    return default_rule(), _trapezoid(0.5 * RULE_STEP)


class TestQuadratureRule:
    def test_weights_normalized(self):
        for _, weights in package_rules():
            assert abs(weights.sum() - 1.0) <= 1e-12
            assert np.all(weights > 0.0)

    def test_nodes_symmetric(self):
        for nodes, weights in package_rules():
            np.testing.assert_array_equal(nodes, -nodes[::-1])
            np.testing.assert_array_equal(weights, weights[::-1])

    def test_immutable(self):
        for array in default_rule():
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_polynomial_exactness(self):
        # the default rule's error on a low moment is the density's tail
        # beyond |w| = 9: odd moments vanish by symmetry, and the even ones
        # hold to 1e-12 up to degree 10 (degree 12 is off by 5.5e-12)
        rule = default_rule()
        for deg in range(11):
            got = gauss_expectation(lambda w, d=deg: w**d, rule)
            assert abs(got - moment(deg)) <= 1e-12 * max(1.0, moment(deg)), deg

    def test_is_the_wider_rule_cut_at_half_width(self):
        # the default rule is the wider rule cut at |w| = 9, and every node
        # the cut drops has a normalised weight below 7e-20
        (nodes, _), (wide_nodes, wide_weights) = default_rule(), WIDE_RULE
        assert nodes.size == 289
        np.testing.assert_array_equal(nodes, np.arange(-144, 145) / 16.0)
        dropped = np.abs(wide_nodes) > RULE_HALF_WIDTH
        np.testing.assert_array_equal(wide_nodes[~dropped], nodes)
        assert wide_weights[dropped].max() < 7e-20

    @pytest.mark.parametrize("order", list(range(1, 161)) + [399, 400, 401, 800, 1000])
    def test_matches_scipy_rule(self, order):
        # scipy's Gauss-Hermite rule of each order integrates the moments of
        # degree <= 2 order - 1 exactly; the default rule agrees with it on
        # those up to degree 10, past which its cut at |w| = 9 shows
        nodes, weights = roots_hermitenorm(order)
        keep = weights > 0.0
        gauss = nodes[keep], weights[keep] / weights[keep].sum()
        for deg in range(min(2 * order - 1, 10) + 1):
            g = lambda w, d=deg: w**d
            want = gauss_expectation(g, gauss)
            got = gauss_expectation(g, default_rule())
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), deg

    @pytest.mark.parametrize("g", [log_cosh, np.tanh], ids=["log_cosh", "tanh"])
    def test_cut_rule_matches_wider_rule_on_engine_integrands(self, g):
        # the cut at |w| = 9 changes the expectation only by the rounding of
        # the sum, across the SNRs the scalar-channel table is fitted on;
        # the bound is relative above 1 because E[log cosh] reaches ~79 at
        # e = 80, where one ulp is 1.4e-14
        rule = default_rule()
        for e in np.linspace(0.0, 80.0, 401):
            h = lambda w, e=e: g(e + math.sqrt(e) * w)
            ref = gauss_expectation(h, WIDE_RULE)
            assert abs(gauss_expectation(h, rule) - ref) <= 1e-14 * max(1.0, abs(ref))


def stacked_expectation(g, e, rule):
    """``E_w[g(e + sqrt(e) w)]`` for each SNR in ``e``, out of place."""
    e_col = np.asarray(e, dtype=float)[:, None]
    return gauss_expectation(lambda w: g(e_col + np.sqrt(e_col) * w), rule)


class TestDefaultRuleAccuracy:
    def test_within_stated_bounds_of_50_digit_integrals(self):
        # the numerics module states 8e-16 on E[log cosh(e + sqrt(e) w)]
        # (relative above 1) and on E[tanh(e + sqrt(e) w)]
        e = np.array([0.01, 0.1, 0.5, 1.5, 2.0, 5.0, 10.0, 14.8, 15.5, 15.8, 18.8,
                      25.0, 33.0, 50.0, 80.0])
        ref = np.array([scalar_channel_mp(float(x))[:2] for x in e]).T
        rule = default_rule()
        err_lc = np.abs(stacked_expectation(log_cosh, e, rule) - (e - ref[0]))
        err_th = np.abs(stacked_expectation(np.tanh, e, rule) - ref[1])
        assert np.all(err_lc <= 1e-15 * np.maximum(1.0, e)), (e[err_lc.argmax()], err_lc.max())
        assert np.all(err_th <= 1e-15), (e[err_th.argmax()], err_th.max())


class TestChebyshev:
    def test_points_are_the_first_kind_roots(self):
        x = chebyshev_points(-1.0, 1.0, 9)
        np.testing.assert_allclose(np.cos(10 * np.arccos(x)), 0.0, atol=1e-14)
        assert np.all(np.diff(x) < 0.0)
        rows = chebyshev_points(np.array([[0.0], [2.0]]), np.array([[2.0], [5.0]]), 4)
        assert rows.shape == (2, 5)
        assert np.all((rows[0] > 0.0) & (rows[0] < 2.0) & (rows[1] > 2.0) & (rows[1] < 5.0))

    def test_coefficients_of_each_chebyshev_polynomial(self):
        # T_k sampled at the points is the k-th unit vector of coefficients
        x = chebyshev_points(-1.0, 1.0, 12)
        k = np.arange(13)[:, None]
        coefs = chebyshev_coefficients(np.cos(k * np.arccos(x)))
        np.testing.assert_allclose(coefs, np.eye(13), atol=1e-14)

    def test_series_matches_numpy_chebval(self):
        rng = np.random.default_rng(5)
        coefs = rng.standard_normal(17)
        t = np.linspace(-1.0, 1.0, 101)
        want = np.polynomial.chebyshev.chebval(t, coefs)
        np.testing.assert_allclose(chebyshev_series(coefs, t), want, atol=1e-13)

    def test_float_equals_its_entry_in_an_array(self):
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((17, 40))
        t = rng.uniform(-1.0, 1.0, 40)
        stacked = chebyshev_series(rows, t)
        singles = [chebyshev_series(rows[:, i].tolist(), float(t[i])) for i in range(40)]
        assert all(type(v) is float for v in singles)
        assert stacked.tolist() == singles

    def test_low_degree_series(self):
        # the recurrence starts from the last coefficient; a constant has
        # none to start from
        t = np.linspace(-1.0, 1.0, 5)
        assert chebyshev_series([2.5], 0.3) == 2.5
        assert chebyshev_series(np.array([2.5]), t).tolist() == [2.5] * 5
        assert chebyshev_series([2.5, -1.0], 0.3) == 2.5 - 0.3
        np.testing.assert_array_equal(chebyshev_series([2.5, -1.0], t), 2.5 - t)

    def test_interpolant_of_an_analytic_function(self):
        x = chebyshev_points(0.0, 3.0, 24)
        coefs = chebyshev_coefficients(np.exp(-x))
        t = np.linspace(-1.0, 1.0, 301)
        got = chebyshev_series(coefs, t)
        np.testing.assert_allclose(got, np.exp(-1.5 * (t + 1.0)), rtol=0.0, atol=1e-15)


class TestLogCosh:
    X = np.concatenate(
        [np.linspace(-60.0, 60.0, 1201), [0.0, -0.0, 1e-300, 1e6, -1e6, 1e300]]
    )

    def test_equals_the_out_of_place_formula(self):
        np.testing.assert_array_equal(log_cosh(self.X), log_cosh_reference(self.X))
        x = self.X.reshape(17, 71)
        np.testing.assert_array_equal(log_cosh(x), log_cosh_reference(x))
        assert log_cosh(2.5) == log_cosh_reference(2.5)

    def test_input_is_left_unchanged(self):
        x = self.X.copy()
        out = log_cosh(x)
        np.testing.assert_array_equal(x, self.X)
        assert not np.shares_memory(out, x)


class TestGaussExpectation:
    def test_constant(self):
        assert gauss_expectation(lambda w: np.ones_like(w), default_rule()) == pytest.approx(1.0, abs=1e-14)

    def test_unit_variance(self):
        assert abs(gauss_expectation(lambda w: w**2, default_rule()) - 1.0) <= 1e-12

    def test_log_cosh_against_monte_carlo(self):
        val = gauss_expectation(lambda w: log_cosh(2.0 + math.sqrt(2.0) * w), default_rule())
        assert abs(val - MC_LOGCOSH_MEAN) <= 3.0 * MC_LOGCOSH_SE

    def test_scalar_only_callable(self):
        # the integrand is called once on the whole node array; one that
        # cannot take an array is refused
        def g(w):
            if isinstance(w, np.ndarray):
                raise TypeError("scalar only")
            return w * w
        with pytest.raises(TypeError, match="scalar only"):
            gauss_expectation(g, SMALL_RULE)

    def test_nonfinite_integrand_reports_node(self):
        with pytest.raises(NumericalError, match="node"):
            gauss_expectation(lambda w: np.where(w > 0, np.inf, 1.0), SMALL_RULE)

    def test_nonfinite_row_of_stacked_integrand_reports_its_node(self):
        bad = float(SMALL_RULE[0][6])
        g = lambda w: np.where((np.arange(3)[:, None] == 2) & (w == bad), np.nan, w**2)
        with pytest.raises(NumericalError, match=f"node {bad!r}"):
            gauss_expectation(g, SMALL_RULE)

    def test_row_holding_both_infinities_reports_its_node(self):
        # +inf and -inf in one row sum to NaN; the first of them is named
        inf_row = lambda w: np.where(w > 0, np.inf, -np.inf)
        g = lambda w: np.where(np.arange(2)[:, None] == 1, inf_row(w), w)
        with pytest.raises(NumericalError, match=f"node {float(SMALL_RULE[0][0])!r}"):
            gauss_expectation(g, SMALL_RULE)

    def test_nan_row_reports_its_first_node(self):
        g = lambda w: np.where(np.arange(3)[:, None] == 0, np.nan, w**2)
        with pytest.raises(NumericalError, match=f"node {float(SMALL_RULE[0][0])!r}"):
            gauss_expectation(g, SMALL_RULE)

    def test_overflowing_sum_of_finite_values_is_refused(self):
        # the weights sum to one, so only rounding at the top of the float
        # range overflows: on these nine nodes, a constant largest-float
        # integrand
        big = np.finfo(float).max
        with pytest.raises(NumericalError, match="overflows"):
            gauss_expectation(lambda w: np.full_like(w, big), SMALL_RULE)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["log_cosh", "tanh"]),
    )
    def test_stacked_integrand_matches_rows(self, n_rows, seed, name):
        g = log_cosh if name == "log_cosh" else np.tanh
        rng = np.random.default_rng(seed)
        a = rng.uniform(-3.0, 3.0, n_rows)
        b = rng.uniform(0.0, 3.0, n_rows)
        rule = default_rule()
        stacked = gauss_expectation(lambda w: g(a[:, None] + b[:, None] * w), rule)
        rows = [gauss_expectation(lambda w, i=i: g(a[i] + b[i] * w), rule)
                for i in range(n_rows)]
        assert stacked.shape == (n_rows,)
        np.testing.assert_allclose(stacked, rows, rtol=1e-15, atol=1e-15)

    def test_stacked_integrand_keeps_leading_axes(self):
        rule = default_rule()
        scale = np.arange(6.0).reshape(2, 3)
        out = gauss_expectation(lambda w: scale[..., None] * w**2, rule)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, scale, rtol=1e-13, atol=1e-15)

    def test_doubling_changes_little_on_engine_integrands(self):
        # twice the nodes, at half the step: the convergence check of
        # ``default_rule`` across the effective-SNR range the solver visits
        rule = default_rule()
        doubled = trapezoid_pair(RULE_STEP / 2, RULE_HALF_WIDTH)
        for e in (0.5, 2.0, 10.0, 15.5, 20.0, 42.9, 80.0):
            for f in (log_cosh, np.tanh):
                g = lambda w, e=e, f=f: f(e + math.sqrt(e) * w)
                assert abs(gauss_expectation(g, rule) - gauss_expectation(g, doubled)) <= 1e-13

    def test_deterministic(self):
        rule = default_rule()
        g = lambda w: log_cosh(3.0 + w)
        assert gauss_expectation(g, rule) == gauss_expectation(g, rule)


#: The grid the minimizer tests hand it unless they say otherwise: 1000 cells.
GRID = np.linspace(0.0, 1.0, 1001)


class TestMinimizeScalar:
    def test_quadratic(self):
        arg, val, *_ = _minimize_with_diagnostics(
            lambda m: (m - 0.5) ** 2, lambda m: m - 0.5, GRID, 1e-10
        )
        assert arg == pytest.approx(0.5, abs=1e-9)
        assert val == pytest.approx(0.0, abs=1e-18)

    def test_monotone_returns_endpoint(self):
        arg, val, *_ = _minimize_with_diagnostics(lambda m: m, lambda m: 1.0, GRID, 1e-10)
        assert arg == 0.0 and val == 0.0

    def test_two_local_minima_lower_endpoint_wins(self):
        f = lambda m: (m * (1.0 - m)) ** 2 + 0.1 * m
        g = lambda m: 2.0 * m * (1.0 - m) * (1.0 - 2.0 * m) + 0.1
        arg, _, interior, *_ = _minimize_with_diagnostics(f, g, GRID, 1e-10)
        assert arg == 0.0 and len(interior) == 1

    def test_exact_tie_prefers_upper_end(self):
        f = lambda m: (m * (1.0 - m)) ** 2
        g = lambda m: m * (1.0 - m) * (1.0 - 2.0 * m)
        arg, val, *_ = _minimize_with_diagnostics(f, g, GRID, 1e-10)
        assert arg == 1.0 and val == 0.0

    def test_interior_beats_endpoints_when_lower(self):
        # cos is flat to double precision within ~3e-9 of the minimizer, but
        # the root of its slope is not
        f = lambda m: np.cos(2 * np.pi * m)
        arg, val, *_ = _minimize_with_diagnostics(
            f, lambda m: -math.sin(2 * math.pi * m), GRID, 1e-10
        )
        assert arg == pytest.approx(0.5, abs=1e-9)
        assert val == pytest.approx(-1.0, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_never_above_grid_minimum(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=5)
        f = lambda m: np.polyval(coeffs, m)
        g = lambda m: np.polyval(np.polyder(coeffs), m)
        grid = np.linspace(0.0, 1.0, 101)
        _, val, *_ = _minimize_with_diagnostics(f, g, grid, 1e-10)
        assert val <= f(grid).min() + 1e-15

    def test_nonfinite_objective(self):
        with pytest.raises(NumericalError, match="non-finite"):
            _minimize_with_diagnostics(
                lambda m: np.where(m > 0.5, np.inf, m),
                lambda m: 1.0,
                np.linspace(0.0, 1.0, 101),
                1e-8,
            )

    def test_bad_arguments(self):
        # an objective that does not map the grid one value per point
        with pytest.raises(ValueError, match="one value per grid point"):
            _minimize_with_diagnostics(lambda m: m[:-1], lambda m: 1.0, GRID, 1e-10)
        with pytest.raises(ValueError, match="one value per grid point"):
            _minimize_with_diagnostics(lambda m: 0.0, lambda m: 1.0, GRID, 1e-10)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_step_and_tolerance_are_refused(self, bad):
        # the grid is handed in whole, so refine_tol is the one step-like
        # argument left; f = m has no interior minimum, so nothing downstream
        # would trip on a NaN refine_tol
        with pytest.raises(ValueError, match="refine_tol must be positive"):
            _minimize_with_diagnostics(lambda m: m, lambda m: 1.0, GRID, bad)

    def test_interior_tie_goes_to_the_larger_argmin(self):
        # f(0) = f(0.5) = 0, and the root at 0.5 ties the endpoint within
        # TIE_TOL
        f = lambda m: m * (m - 0.5) ** 2
        g = lambda m: (m - 0.5) * (3.0 * m - 0.5)
        arg, val, interior, f_lo, _ = _minimize_with_diagnostics(f, g, GRID, 1e-12)
        assert f_lo == 0.0 and interior == ((arg, val),)
        assert abs(arg - 0.5) <= 1e-12 and 0.0 <= val <= TIE_TOL


class TestStationaryRefinement:
    """Interior minima refined at the root of ``stationary`` on the first of
    three grid brackets across which it turns from negative to positive,
    and dropped where it turns across none."""

    # one interior minimum at 0.3, where f' = 4 (m - 0.3)**3 + 2 (m - 0.3)
    # changes sign
    f = staticmethod(lambda m: (m - 0.3) ** 4 + (m - 0.3) ** 2)
    fprime = staticmethod(lambda m: 4.0 * (m - 0.3) ** 3 + 2.0 * (m - 0.3))

    @staticmethod
    def _scalar_calls(f):
        calls = []

        def counted(m):
            if np.ndim(m) == 0:
                calls.append(m)
            return f(m)

        return counted, calls

    def test_sign_change_takes_the_root(self):
        f, calls = self._scalar_calls(self.f)
        arg, val, interior, *_ = _minimize_with_diagnostics(
            f, self.fprime, GRID, 1e-12
        )
        root = _brent_root(self.fprime, 0.299, 0.301, 1e-12)
        assert arg == root and interior == ((root, self.f(root)),)
        assert calls == [root]
        assert abs(arg - 0.3) <= 1e-12

    # the minimum's grid point and its neighbours
    A, M, B = (float(x) for x in GRID[[299, 300, 301]])

    @pytest.mark.parametrize(
        "stationary",
        [
            lambda m: 1.0,
            lambda m: -4.0 * (m - 0.3) ** 3 - 2.0 * (m - 0.3),
            lambda m: min(m - TestStationaryRefinement.B, 0.0),
            lambda m: max(m - TestStationaryRefinement.A, 0.0),
        ],
        ids=["no-sign-change", "wrong-direction", "zero-at-upper-end", "zero-at-lower-end"],
    )
    def test_no_turn_drops_the_minimum(self, stationary):
        got = _minimize_with_diagnostics(self.f, stationary, GRID, 1e-12)
        assert got == (0.0, self.f(0.0), (), self.f(0.0), self.f(1.0))

    @pytest.mark.parametrize(
        "minimizer, end, sign, lo, hi",
        [(0.3004, A, 1.0, M, B), (0.2996, B, -1.0, A, M)],
        ids=["upper-half", "lower-half"],
    )
    def test_half_bracket_takes_the_first_turn(self, minimizer, end, sign, lo, hi):
        # the grid minimum is at M, and stationary reads +, -, + (or -, +, -)
        # across A, M, B: only the half bracket [M, B] (or [A, M]) holds a turn
        f = lambda m: (m - minimizer) ** 2
        slope = lambda m: 2.0 * (m - minimizer)
        root = _brent_root(slope, lo, hi, 1e-12)
        got = _minimize_with_diagnostics(
            f, lambda m: sign if m == end else slope(m), GRID, 1e-12
        )
        assert got[:3] == (root, f(root), ((root, f(root)),))
        assert abs(root - minimizer) <= 1e-12

    def test_zero_at_the_origin_roots_in_the_upper_half(self):
        # a minimum on the grid point next to m = 0, where the stationarity
        # function vanishes, as m - F(m) does for lambda >= 2
        f = lambda m: (m - 0.0011) ** 2
        g = lambda m: 2.0 * m * (m - 0.0011)
        assert g(0.0) == 0.0
        got = _minimize_with_diagnostics(f, g, GRID, 1e-12)
        root = _brent_root(g, 0.001, 0.002, 1e-12)
        assert got[:3] == (root, f(root), ((root, f(root)),))
        assert abs(root - 0.0011) <= 1e-12

    def test_flat_minimum_does_not_displace_a_tied_endpoint(self):
        # every grid point of the flat stretch next to m = 0 is a minimum,
        # and ties f(0); without a sign change of stationary each is
        # dropped, and the endpoint keeps the tie that the plain tie rule
        # would hand to the largest argmin
        f = lambda m: np.maximum(m - 0.0105, 0.0)
        arg, val, interior, *_ = _minimize_with_diagnostics(
            f, lambda m: 1.0, GRID, 1e-12
        )
        assert (arg, val, interior) == (0.0, 0.0, ())


class TestBrentRoot:
    @settings(max_examples=60, deadline=None)
    @given(
        root=st.floats(min_value=-2.0, max_value=2.0),
        left=st.floats(min_value=1e-3, max_value=3.0),
        right=st.floats(min_value=1e-3, max_value=3.0),
        seed=st.integers(min_value=0, max_value=10_000),
        xtol=st.sampled_from([1e-6, 1e-10, 2e-12]),
    )
    def test_matches_scipy_brentq(self, root, left, right, seed, xtol):
        # (x - root) times a polynomial positive on the real line: one
        # simple sign change inside [root - left, root + right]
        rng = np.random.default_rng(seed)
        poly = np.poly1d([rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])])
        for _ in range(rng.integers(0, 3)):
            c, d = rng.normal(scale=2.0), rng.uniform(0.1, 2.0)
            poly = poly * np.poly1d([1.0, -2.0 * c, c * c + d * d])
        poly = poly * np.poly1d([1.0, -root])
        f = lambda x: float(poly(x))
        a, b = root - left, root + right
        want = brentq(f, a, b, xtol=xtol)
        got = _brent_root(f, a, b, xtol)
        assert abs(got - want) <= xtol
        assert abs(got - root) <= xtol + 1e-14 * max(1.0, abs(root))

    def test_known_end_values_are_not_recomputed(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        x = _brent_root(f, 0.0, 2.0, 1e-14, fa=-2.0, fb=2.0)
        assert abs(x - math.sqrt(2.0)) <= 1e-14
        assert 0.0 not in calls and 2.0 not in calls

    def test_root_at_an_end(self):
        assert _brent_root(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
        assert _brent_root(lambda x: x - 1.0, 0.0, 1.0, 1e-12) == 1.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            _brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_bad_tolerance(self):
        for xtol in (0.0, -1e-9, math.nan):
            with pytest.raises(ValueError):
                _brent_root(lambda x: x, -1.0, 1.0, xtol)


class TestGridBlocks:
    """The whole-grid objective call against the one-call-per-point
    reference: the same endpoint values, and a grid minimum wherever the
    reference refines one, on every point of a plateau."""

    def test_whole_grid_goes_to_one_call(self):
        seen = []

        def f(m):
            if np.ndim(m):
                seen.append(np.array(m))
            return (m - 0.3) ** 2

        _minimize_with_diagnostics(f, lambda m: m - 0.3, GRID, 1e-10)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], np.linspace(0.0, 1.0, 1001))

    @staticmethod
    def _check_against_reference(f, grid_step, refine_tol):
        # a stationary that never turns records the three bracket points of
        # each grid minimum, its own point last, and drops it; the tie rule
        # then picks between the endpoints
        grid = np.linspace(0.0, 1.0, round(1.0 / grid_step) + 1)
        tried = []
        arg, val, interior, f_lo, f_hi = _minimize_with_diagnostics(
            f, lambda m: tried.append(m) or 1.0, grid, refine_tol
        )
        ref = minimize_reference(f, 0.0, 1.0, grid_step, refine_tol)
        assert (interior, f_lo, f_hi) == ((),) + ref[3:]
        assert len(tried) == 3 * len(ref[2])
        for m, (x, _) in zip(tried[2::3], ref[2]):
            assert abs(x - m) <= grid_step
        assert (arg, val) == ((1.0, f_hi) if f_hi - f_lo <= TIE_TOL else (0.0, f_lo))

    @pytest.mark.parametrize("grid_step", [1e-2, 2e-3])
    @pytest.mark.parametrize(
        "f",
        [
            lambda m: np.zeros_like(m),
            lambda m: np.round(np.cos(6 * np.pi * m) * 4.0) / 4.0,
            lambda m: np.floor(np.abs(m - 0.55) * 10.0),
            lambda m: np.minimum(np.abs(m - 0.2), np.abs(m - 0.8)),
            lambda m: (m * (1.0 - m)) ** 2,
        ],
        ids=["constant", "stepped-cosine", "stepped-vee", "two-wells", "tie"],
    )
    def test_plateaus_and_ties_match_reference(self, f, grid_step):
        # runs of equal grid values make every point of the run a grid minimum
        self._check_against_reference(f, grid_step, 1e-8)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(1, 8))
    def test_quantised_polynomials_match_reference(self, seed, levels):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=5)
        f = lambda m: np.round(np.polyval(coeffs, m) * levels) / levels
        self._check_against_reference(f, 4e-3, 1e-4)

    def test_nonfinite_value_in_a_later_block_names_its_grid_point(self):
        bad = float(GRID[731])
        f = lambda m: np.where(m == bad, np.nan, m)
        with pytest.raises(NumericalError, match=f"grid point {bad!r}"):
            _minimize_with_diagnostics(f, lambda m: 1.0, GRID, 1e-10)

    def test_wrong_number_of_values_is_refused(self):
        with pytest.raises(ValueError, match="one value per grid point"):
            _minimize_with_diagnostics(
                lambda m: m[:-1], lambda m: 1.0, np.linspace(0.0, 1.0, 101), 1e-8
            )


class TestBisectTransition:
    def test_step_indicator(self):
        x = bisect_transition(lambda t: t > 0.3, 0.0, 1.0, 1e-4)
        assert x == pytest.approx(0.3, abs=1e-4)

    def test_degenerate_bracket(self):
        with pytest.raises(BracketError):
            bisect_transition(lambda t: t > 0.3, 0.5, 0.5, 1e-4)

    def test_no_flip(self):
        with pytest.raises(BracketError):
            bisect_transition(lambda t: True, 0.0, 1.0, 1e-4)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_tolerance_is_refused(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            bisect_transition(lambda t: t > 0.3, 0.0, 1.0, tol)

    def test_tolerance_below_float_resolution_ends(self):
        # halving stops at two adjacent floats; an unbounded loop would raise
        calls = []

        def flipped(t):
            calls.append(t)
            if len(calls) > 200:
                raise AssertionError("bisection does not end")
            return t > 1.7

        x = bisect_transition(flipped, 1.5, 2.0, 1e-20)
        assert x in (1.7, math.nextafter(1.7, 2.0))
        assert len(calls) < 70

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_recovers_arbitrary_threshold(self, threshold):
        x = bisect_transition(lambda t: t >= threshold, 0.0, 1.0, 1e-6)
        assert abs(x - threshold) <= 1e-6
