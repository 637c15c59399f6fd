import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import roots_hermitenorm

from gfwiretap.errors import BracketError, NumericalError
from gfwiretap.numerics import (
    DEFAULT_QUADRATURE_ORDER,
    NODE_WEIGHT_FLOOR,
    SNR_BANDS,
    QuadratureBands,
    QuadratureRule,
    _brent_root,
    _hermite_rule,
    _minimize_with_diagnostics,
    bisect_transition,
    default_bands,
    default_rule,
    gauss_expectation,
    gauss_hermite_rule,
    log_cosh,
)
from oracles import (
    full_rule,
    log_cosh_expectation_mp,
    log_cosh_reference,
    minimize_reference,
)

# 1e7-sample Monte Carlo reference for E[log cosh(2 + sqrt(2) w)], w ~ N(0,1),
# generated once with numpy PCG64 seed 20260808.
MC_LOGCOSH_MEAN = 1.500192289632
MC_LOGCOSH_SE = 3.650e-04


def double_factorial(n: int) -> float:
    return float(math.prod(range(n, 0, -2))) if n > 0 else 1.0


class TestQuadratureRule:
    def test_weights_normalized(self):
        for order in (5, 80, 400):
            rule = gauss_hermite_rule(order)
            assert abs(rule.weights.sum() - 1.0) <= 1e-12
            assert np.all(rule.weights > 0.0)

    def test_nodes_symmetric(self):
        for order in (7, 80, 401):
            rule = gauss_hermite_rule(order)
            assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-12, rtol=0)

    def test_immutable(self):
        rule = gauss_hermite_rule(11)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_validation_rejects_bad_rules(self):
        with pytest.raises(ValueError):
            QuadratureRule(order=0, nodes=np.array([0.0]), weights=np.array([1.0]))
        with pytest.raises(ValueError):
            QuadratureRule(
                order=2, nodes=np.array([-1.0, 2.0]), weights=np.array([0.5, 0.5])
            )
        with pytest.raises(ValueError):
            QuadratureRule(
                order=2, nodes=np.array([-1.0, 1.0]), weights=np.array([0.9, 0.2])
            )

    def test_polynomial_exactness(self):
        # a Gauss rule of order q integrates x**d exactly for d <= 2q-1
        for order in (6, 20, 80):
            rule = gauss_hermite_rule(order)
            for deg in range(0, min(2 * order - 1, 40) + 1):
                moment = gauss_expectation(lambda w, d=deg: w**d, rule)
                if deg % 2 == 1:
                    assert abs(moment) <= 1e-10 * double_factorial(deg)
                else:
                    exact = double_factorial(deg - 1)
                    assert abs(moment - exact) <= 1e-10 * exact

    def test_high_order_trims_underflow_but_stays_positive(self):
        rule = gauss_hermite_rule(800)
        assert np.all(rule.weights > 0.0)
        assert len(rule.nodes) < 800
        assert abs(gauss_expectation(lambda w: w**2, rule) - 1.0) < 1e-12

    def test_drops_nodes_at_or_below_weight_floor(self):
        rule, full = default_rule(), full_rule(DEFAULT_QUADRATURE_ORDER)
        assert (rule.nodes.size, full.nodes.size) == (144, 396)
        assert np.all(rule.weights > NODE_WEIGHT_FLOOR)
        nodes, weights = _hermite_rule(DEFAULT_QUADRATURE_ORDER)
        kept = weights / weights.sum() > NODE_WEIGHT_FLOOR
        np.testing.assert_array_equal(rule.nodes, nodes[kept])

    @pytest.mark.parametrize("order", list(range(1, 161)) + [399, 400, 401, 800, 1000])
    def test_matches_scipy_rule(self, order):
        # scipy builds its rule by Golub-Welsch up to order 150 and by an
        # asymptotic expansion above; normalised and floored like ours, it
        # keeps the same nodes
        want_nodes, want_weights = roots_hermitenorm(order)
        want_weights = want_weights / want_weights.sum()
        kept = want_weights > NODE_WEIGHT_FLOOR
        _, weights = _hermite_rule(order)
        np.testing.assert_array_equal(weights / weights.sum() > NODE_WEIGHT_FLOOR, kept)
        rule = gauss_hermite_rule(order)
        np.testing.assert_allclose(rule.nodes, want_nodes[kept], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(rule.weights, want_weights[kept], rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("g", [log_cosh, np.tanh], ids=["log_cosh", "tanh"])
    def test_pruned_rule_matches_unpruned_on_engine_integrands(self, g):
        # the dropped nodes change the expectation only by the rounding of
        # the sum; the bound is relative above 1 because E[log cosh] reaches
        # ~49 at E = 50, where one ulp is 7e-15
        rule, full = default_rule(), full_rule(DEFAULT_QUADRATURE_ORDER)
        for e in np.linspace(0.0, 50.0, 401):
            h = lambda w, e=e: g(e + math.sqrt(e) * w)
            ref = gauss_expectation(h, full)
            assert abs(gauss_expectation(h, rule) - ref) <= 1e-14 * max(1.0, abs(ref))


def stacked_expectation(g, e, rule):
    """``E_w[g(e + sqrt(e) w)]`` for each SNR in ``e``, out of place."""
    e_col = np.asarray(e, dtype=float)[:, None]
    return gauss_expectation(lambda w: g(e_col + np.sqrt(e_col) * w), rule)


class TestDefaultRuleAccuracy:
    def test_within_stated_bounds_of_order_800(self):
        # DEFAULT_QUADRATURE_ORDER states 7.5e-12 on log cosh and 7.5e-11 on
        # tanh over e in [0, 60], against order 800
        e = np.linspace(0.0, 60.0, 1201)
        rule, fine = default_rule(), gauss_hermite_rule(800)
        for g, bound in ((log_cosh, 1e-11), (np.tanh, 1e-10)):
            err = np.abs(
                stacked_expectation(g, e, rule) - stacked_expectation(g, e, fine)
            )
            assert err.max() <= bound, (g, e[err.argmax()], err.max())


class TestSnrBands:
    """The certificate for ``SNR_BANDS``: each band's rule against the
    unpruned order-400 rule, on a dense grid across its band and at 50
    digits at its cut points and its worst-case SNR."""

    REF = full_rule(DEFAULT_QUADRATURE_ORDER)

    @staticmethod
    def band_ranges():
        bands = default_bands()
        lows = (0.0,) + bands.cuts
        highs = bands.cuts + (60.0,)
        return list(zip(bands.rules, lows, highs))

    def test_table_is_the_default_bands(self):
        bands = default_bands()
        assert bands.cuts == tuple(cut for cut, _ in SNR_BANDS)
        assert [r.order for r in bands.rules] == [o for _, o in SNR_BANDS] + [
            DEFAULT_QUADRATURE_ORDER
        ]
        assert bands.rules[-1] is default_rule()
        # each band is cheaper than the one above it
        sizes = [r.nodes.size for r in bands.rules]
        assert sizes == sorted(set(sizes))

    @pytest.mark.parametrize("g", [log_cosh, np.tanh], ids=["log_cosh", "tanh"])
    def test_band_rules_match_unpruned_across_each_band(self, g):
        for rule, lo, hi in self.band_ranges():
            e = np.linspace(lo, hi, 801)
            ref = stacked_expectation(g, e, self.REF)
            err = np.abs(stacked_expectation(g, e, rule) - ref)
            bad = err > 1e-14 * np.maximum(1.0, np.abs(ref))
            assert not bad.any(), (rule.order, e[bad][:3], err[bad][:3])

    def test_band_rules_against_50_digits(self):
        # the float expectation of each band's rule against the exact sum of
        # the unpruned order-400 rule, at the band's ends and at the SNR where
        # it strays furthest from that rule on the dense grid
        for rule, lo, hi in self.band_ranges()[:-1]:
            e = np.linspace(lo, hi, 801)
            ref = stacked_expectation(log_cosh, e, self.REF)
            err = np.abs(stacked_expectation(log_cosh, e, rule) - ref)
            worst = e[np.argmax(err / np.maximum(1.0, np.abs(ref)))]
            for x in (lo, worst, hi):
                exact = log_cosh_expectation_mp(x, self.REF)
                got = gauss_expectation(lambda w: log_cosh(x + math.sqrt(x) * w), rule)
                assert abs(got - exact) <= 1e-14 * max(1.0, abs(exact)), (rule.order, x)

    def test_rule_is_one_band(self):
        rule = gauss_hermite_rule(9)
        bands = QuadratureBands.of(rule)
        assert bands.cuts == () and bands.rules == (rule,)
        assert QuadratureBands.of(bands) is bands

    def test_malformed_tables_are_refused(self):
        rule = gauss_hermite_rule(9)
        with pytest.raises(ValueError, match="one rule more"):
            QuadratureBands((1.0,), (rule,))
        with pytest.raises(ValueError, match="ascend"):
            QuadratureBands((1.0, 1.0), (rule, rule, rule))


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
        # cannot take an array, or returns one value for all nodes, is refused
        rule = gauss_hermite_rule(21)
        def g(w):
            if isinstance(w, np.ndarray):
                raise TypeError("scalar only")
            return w * w
        with pytest.raises(TypeError, match="scalar only"):
            gauss_expectation(g, rule)
        with pytest.raises(ValueError, match="one value per node"):
            gauss_expectation(lambda w: 1.0, rule)

    def test_nonfinite_integrand_reports_node(self):
        rule = gauss_hermite_rule(9)
        with pytest.raises(NumericalError, match="node"):
            gauss_expectation(lambda w: np.where(w > 0, np.inf, 1.0), rule)

    def test_nonfinite_row_of_stacked_integrand_reports_its_node(self):
        rule = gauss_hermite_rule(9)
        bad = float(rule.nodes[6])
        g = lambda w: np.where((np.arange(3)[:, None] == 2) & (w == bad), np.nan, w**2)
        with pytest.raises(NumericalError, match=f"node {bad!r}"):
            gauss_expectation(g, rule)

    def test_row_holding_both_infinities_reports_its_node(self):
        # +inf and -inf in one row sum to NaN; the first of them is named
        rule = gauss_hermite_rule(9)
        inf_row = lambda w: np.where(w > 0, np.inf, -np.inf)
        g = lambda w: np.where(np.arange(2)[:, None] == 1, inf_row(w), w)
        with pytest.raises(NumericalError, match=f"node {float(rule.nodes[0])!r}"):
            gauss_expectation(g, rule)

    def test_nan_row_reports_its_first_node(self):
        rule = gauss_hermite_rule(9)
        g = lambda w: np.where(np.arange(3)[:, None] == 0, np.nan, w**2)
        with pytest.raises(NumericalError, match=f"node {float(rule.nodes[0])!r}"):
            gauss_expectation(g, rule)

    def test_overflowing_sum_of_finite_values_is_refused(self):
        # the weights sum to one, so only rounding at the top of the float
        # range overflows: at order 10, a constant largest-float integrand
        rule = gauss_hermite_rule(10)
        big = np.finfo(float).max
        with pytest.raises(NumericalError, match="overflows"):
            gauss_expectation(lambda w: np.full_like(w, big), rule)

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
        rule = gauss_hermite_rule(20)
        scale = np.arange(6.0).reshape(2, 3)
        out = gauss_expectation(lambda w: scale[..., None] * w**2, rule)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, scale, rtol=1e-13, atol=1e-15)

    def test_wrong_last_axis_is_refused(self):
        rule = gauss_hermite_rule(21)
        with pytest.raises(ValueError, match="last axis"):
            gauss_expectation(lambda w: np.ones((w.size, 2)), rule)

    def test_doubling_changes_little_on_engine_integrands(self):
        # convergence check across the effective-SNR range the solver visits
        rule = default_rule()
        doubled = gauss_hermite_rule(2 * DEFAULT_QUADRATURE_ORDER)
        for e in (0.5, 2.0, 10.0, 20.0, 42.9):
            g = lambda w, e=e: log_cosh(e + math.sqrt(e) * w)
            assert abs(gauss_expectation(g, rule) - gauss_expectation(g, doubled)) <= 1e-10

    def test_deterministic(self):
        rule = default_rule()
        g = lambda w: log_cosh(3.0 + w)
        assert gauss_expectation(g, rule) == gauss_expectation(g, rule)


class TestMinimizeScalar:
    def test_quadratic(self):
        arg, val, *_ = _minimize_with_diagnostics(
            lambda m: (m - 0.5) ** 2, 0.0, 1.0, 1e-3, 1e-10
        )
        assert arg == pytest.approx(0.5, abs=1e-9)
        assert val == pytest.approx(0.0, abs=1e-18)

    def test_monotone_returns_endpoint(self):
        arg, val, *_ = _minimize_with_diagnostics(lambda m: m, 0.0, 1.0, 1e-3, 1e-10)
        assert arg == 0.0 and val == 0.0

    def test_two_local_minima_lower_endpoint_wins(self):
        f = lambda m: (m * (1.0 - m)) ** 2 + 0.1 * m
        arg, *_ = _minimize_with_diagnostics(f, 0.0, 1.0, 1e-3, 1e-10)
        assert arg == 0.0

    def test_exact_tie_prefers_upper_end(self):
        f = lambda m: (m * (1.0 - m)) ** 2
        arg, val, *_ = _minimize_with_diagnostics(f, 0.0, 1.0, 1e-3, 1e-10)
        assert arg == 1.0 and val == 0.0

    def test_interior_beats_endpoints_when_lower(self):
        # cos is flat to double precision within ~3e-9 of the minimizer, so
        # no value-based search can do better than that plateau
        f = lambda m: np.cos(2 * np.pi * m)
        arg, val, *_ = _minimize_with_diagnostics(f, 0.0, 1.0, 1e-3, 1e-10)
        assert arg == pytest.approx(0.5, abs=1e-8)
        assert val == pytest.approx(-1.0, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_never_above_grid_minimum(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=5)
        f = lambda m: np.polyval(coeffs, m)
        _, val, *_ = _minimize_with_diagnostics(f, 0.0, 1.0, 1e-2, 1e-10)
        grid = np.linspace(0.0, 1.0, 101)
        assert val <= f(grid).min() + 1e-15

    def test_nonfinite_objective(self):
        with pytest.raises(NumericalError, match="non-finite"):
            _minimize_with_diagnostics(
                lambda m: np.where(m > 0.5, np.inf, m), 0.0, 1.0, 1e-2, 1e-8
            )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            _minimize_with_diagnostics(lambda m: m, 1.0, 0.0, 1e-3, 1e-10)
        with pytest.raises(ValueError):
            _minimize_with_diagnostics(lambda m: m, 0.0, 1.0, -1e-3, 1e-10)
        with pytest.raises(ValueError):
            _minimize_with_diagnostics(lambda m: m, 0.0, 1.0, 1e-3, 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_step_and_tolerance_are_refused(self, bad):
        # f = m has no interior minimum, so nothing downstream would trip on
        # a NaN refine_tol
        with pytest.raises(ValueError, match="grid_step must be positive"):
            _minimize_with_diagnostics(lambda m: m, 0.0, 1.0, bad, 1e-10)
        with pytest.raises(ValueError, match="refine_tol must be positive"):
            _minimize_with_diagnostics(lambda m: m, 0.0, 1.0, 1e-3, bad)


class TestStationaryRefinement:
    """Interior minima refined at the root of a sign-changing ``stationary``,
    with golden section as the fallback."""

    # one interior minimum at 0.3, where f' = 4 (m - 0.3)**3 + 2 (m - 0.3)
    # changes sign; f is flat enough there that golden section stops short
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
            f, 0.0, 1.0, 1e-3, 1e-12, stationary=self.fprime
        )
        root = _brent_root(self.fprime, 0.299, 0.301, 1e-12)
        assert arg == root and interior == ((root, self.f(root)),)
        assert calls == [root]
        assert abs(arg - 0.3) <= 1e-12

    # the ends of the minimum's grid bracket
    A, B = (float(x) for x in np.linspace(0.0, 1.0, 1001)[[299, 301]])

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
    def test_no_strict_sign_change_falls_back_to_golden(self, stationary):
        got = _minimize_with_diagnostics(
            self.f, 0.0, 1.0, 1e-3, 1e-12, stationary=stationary
        )
        assert got == _minimize_with_diagnostics(self.f, 0.0, 1.0, 1e-3, 1e-12)

    def test_zero_at_the_origin_falls_back_to_golden(self):
        # a minimum on the grid point next to m = 0, where the stationarity
        # function vanishes, as m - F(m) does for lambda >= 2
        f = lambda m: (m - 0.0011) ** 2
        g = lambda m: 2.0 * m * (m - 0.0011)
        assert g(0.0) == 0.0
        got = _minimize_with_diagnostics(f, 0.0, 1.0, 1e-3, 1e-12, stationary=g)
        assert got == _minimize_with_diagnostics(f, 0.0, 1.0, 1e-3, 1e-12)
        assert len(got[2]) == 1


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
    """The whole-grid objective call against the one-call-per-point reference."""

    def test_whole_grid_goes_to_one_call(self):
        seen = []

        def f(m):
            if np.ndim(m):
                seen.append(np.array(m))
            return (m - 0.3) ** 2

        _minimize_with_diagnostics(f, 0.0, 1.0, 1e-3, 1e-10)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], np.linspace(0.0, 1.0, 1001))

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
        # runs of equal grid values make every point of the run a candidate,
        # and the tie rule then picks among equal refined values
        got = _minimize_with_diagnostics(f, 0.0, 1.0, grid_step, 1e-8)
        assert got == minimize_reference(f, 0.0, 1.0, grid_step, 1e-8)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(1, 8))
    def test_quantised_polynomials_match_reference(self, seed, levels):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=5)
        f = lambda m: np.round(np.polyval(coeffs, m) * levels) / levels
        got = _minimize_with_diagnostics(f, 0.0, 1.0, 4e-3, 1e-4)
        assert got == minimize_reference(f, 0.0, 1.0, 4e-3, 1e-4)

    def test_nonfinite_value_in_a_later_block_names_its_grid_point(self):
        grid = np.linspace(0.0, 1.0, 1001)
        bad = float(grid[731])
        f = lambda m: np.where(m == bad, np.nan, m)
        with pytest.raises(NumericalError, match=f"grid point {bad!r}"):
            _minimize_with_diagnostics(f, 0.0, 1.0, 1e-3, 1e-10)

    def test_wrong_number_of_values_is_refused(self):
        with pytest.raises(ValueError, match="one value per grid point"):
            _minimize_with_diagnostics(lambda m: m[:-1], 0.0, 1.0, 1e-2, 1e-8)


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
