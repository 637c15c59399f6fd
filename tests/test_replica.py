import dataclasses
import math
import timeit
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gfwiretap import numerics, replica
from gfwiretap.channel import LOG2, awgn_capacity, critical_rate_heuristic
from gfwiretap.errors import BracketError, NumericalError
from gfwiretap.numerics import bisect_transition
from gfwiretap.replica import (
    CHANNEL_CUTS,
    GRID_STEP,
    ReplicaSolution,
    energy,
    fixed_point_map,
    locate_critical_rate,
    make_config,
    scan_rates,
    solve_overlap,
)
from oracles import (
    energy_reference,
    fixed_point_map_reference,
    fp_reference,
    mi_reference,
    scalar_channel_fine,
    scalar_channel_mp,
    solve_overlap_reference,
)

# 1e7-sample Monte Carlo reference for the decoupled-channel mutual
# information at effective SNR 2 (same stream as the numerics oracle).
MC_MI_AT_2 = 0.499807710368
MC_MI_SE = 3.650e-04

C0 = 1.19894763639919  # awgn_capacity(10)
RSTAR = 1.72971580931865  # critical_rate_heuristic(1, 0.1)


def overlap_terms(m, power: float, order: int):
    """``(phi(m), phi'(m), sigma_sq + phi(1) - phi(m))`` at sigma_sq 0.1."""
    return replica._overlap_terms(m, make_config(rate=1.0, power=power, order=order))


# the energy's terms, each formed on its own by the operations energy takes
def snr(m, cfg):
    return replica._snr(replica._overlap_terms(m, cfg), cfg)


def mi(m, cfg):
    return replica._mi(snr(m, cfg))


def cd(m, cfg):
    return replica._cd(replica._overlap_terms(m, cfg), cfg)


def cd_prime(m, cfg):
    return replica._cd_prime(replica._overlap_terms(m, cfg))


def cfg_for_snr(e: float, order: int = 1):
    """lambda=1 config whose effective SNR at m=1 is exactly e."""
    # E(1) = power / (rate * sigma_sq) for order 1
    return make_config(rate=1.0 / (0.1 * e), sigma_sq=0.1, power=1.0, order=order)


class TestCovarianceFunction:
    def test_power_normalization(self):
        for lam in (1, 2, 3, 5):
            assert overlap_terms(1.0, 2.5, lam)[0] == 2.5

    def test_origin_flatness_for_nonlinear(self):
        for lam in (2, 3, 4):
            assert overlap_terms(0.0, 1.0, lam)[:2] == (0.0, 0.0)

    def test_linear_derivative_is_power(self):
        assert overlap_terms(0.0, 3.0, 1)[1] == 3.0
        assert overlap_terms(0.7, 3.0, 1)[1] == 3.0

    def test_midpoint_value(self):
        assert overlap_terms(0.5, 1.0, 3)[0] == 0.125


class TestEffectiveSnr:
    def test_zero_at_origin_for_nonlinear(self):
        cfg = make_config(rate=1.0, order=2)
        assert snr(0.0, cfg) == 0.0

    def test_full_overlap_cubic(self):
        cfg = make_config(rate=1.5, sigma_sq=0.1, power=1.0, order=3)
        assert snr(1.0, cfg) == pytest.approx(20.0, rel=1e-14)

    def test_full_overlap_linear(self):
        cfg = make_config(rate=2.0, sigma_sq=0.1, power=1.0, order=1)
        assert snr(1.0, cfg) == pytest.approx(5.0, rel=1e-14)

    def test_finite_everywhere(self):
        cfg = make_config(rate=0.3, order=3)
        for m in np.linspace(0.0, 1.0, 50):
            assert math.isfinite(snr(float(m), cfg))


class TestDecoupledMi:
    def test_zero_snr(self):
        cfg = make_config(rate=1.0, order=3)
        assert mi(0.0, cfg) == 0.0
        # E(0) = 0 for lambda >= 2, and tanh(0) is exactly 0 at every node
        for lam in (2, 3, 4):
            cfg = make_config(rate=1.0, order=lam)
            assert snr(0.0, cfg) == 0.0
            assert fixed_point_map(0.0, cfg) == 0.0

    def test_saturates_at_log_two(self):
        cfg = cfg_for_snr(50.0)
        assert abs(mi(1.0, cfg) - LOG2) <= 1e-6

    def test_matches_monte_carlo_at_snr_two(self):
        cfg = cfg_for_snr(2.0)
        assert abs(mi(1.0, cfg) - MC_MI_AT_2) <= 3.0 * MC_MI_SE

    def test_bounded(self):
        cfg = make_config(rate=0.5, order=3)
        for m in np.linspace(0.0, 1.0, 40):
            v = mi(float(m), cfg)
            assert 0.0 <= v <= LOG2


class TestCapacityGap:
    def test_vanishes_at_full_overlap(self):
        for lam in (1, 2, 3):
            cfg = make_config(rate=1.0, order=lam)
            assert cd(1.0, cfg) == 0.0

    def test_full_capacity_at_zero_overlap(self):
        for lam in (1, 2, 3):
            cfg = make_config(rate=1.0, sigma_sq=0.1, power=1.0, order=lam)
            assert cd(0.0, cfg) == pytest.approx(C0, abs=1e-12)

    def test_derivative_zero_at_origin_for_nonlinear(self):
        for lam in (2, 3):
            cfg = make_config(rate=1.0, order=lam)
            assert cd_prime(0.0, cfg) == 0.0

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        for lam in (1, 2, 3):
            cfg = make_config(rate=1.3, sigma_sq=0.2, power=1.7, order=lam)
            for m in np.linspace(0.05, 0.95, 20):
                numeric = (cd(m + h, cfg) - cd(m - h, cfg)) / (2 * h)
                assert abs(cd_prime(float(m), cfg) - numeric) <= 1e-8


class TestEnergy:
    def test_zero_overlap_equals_capacity_for_nonlinear(self):
        cfg = make_config(rate=2.0, sigma_sq=0.1, power=1.0, order=3)
        assert energy(0.0, cfg) == pytest.approx(C0, abs=1e-10)

    def test_full_overlap_reduces_to_scaled_mi(self):
        cfg = make_config(rate=1.4, sigma_sq=0.1, power=1.0, order=3)
        assert energy(1.0, cfg) == cfg.rate * mi(1.0, cfg)

    def test_full_overlap_approaches_entropy_rate(self):
        cfg = make_config(rate=0.7, sigma_sq=0.1, power=1.0, order=3)
        assert energy(1.0, cfg) == pytest.approx(0.7 * LOG2, abs=1e-4)


class TestArrayOverlaps:
    QUANTITIES = (energy, fixed_point_map)

    @settings(max_examples=30, deadline=None)
    @given(
        order=st.integers(min_value=1, max_value=4),
        rate=st.floats(min_value=0.2, max_value=5.0),
        sigma_sq=st.floats(min_value=0.02, max_value=2.0),
        power=st.floats(min_value=0.2, max_value=3.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_array_equals_stacked_float_calls(self, order, rate, sigma_sq, power, seed):
        cfg = make_config(rate=rate, sigma_sq=sigma_sq, power=power, order=order)
        rng = np.random.default_rng(seed)
        m = np.concatenate([[0.0, 1.0], rng.random(15)])
        for f in self.QUANTITIES:
            stacked = np.array([f(float(x), cfg) for x in m])
            np.testing.assert_allclose(f(m, cfg), stacked, rtol=1e-13, atol=1e-13)

    def test_float_in_gives_python_float_out(self):
        for order in (1, 3):
            cfg = make_config(rate=1.3, order=order)
            for f in self.QUANTITIES:
                for m in (0.0, 0.4, 1.0, np.float64(0.4)):
                    assert type(f(m, cfg)) is float

    def test_negative_zero_overlap_matches_its_entry(self):
        # at order 2 the SNR is -0.0, which the I clip turns into +0.0
        for order in (1, 2, 3):
            cfg = make_config(rate=1.3, order=order)
            for f in self.QUANTITIES:
                single, stacked = f(-0.0, cfg), f(np.array([-0.0, 0.5]), cfg)[0]
                assert single == stacked and math.copysign(1.0, single) == math.copysign(
                    1.0, stacked
                ), (order, f.__name__, single, stacked)

    def test_array_in_keeps_shape(self):
        cfg = make_config(rate=1.3, order=3)
        m = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        for f in self.QUANTITIES:
            assert f(m, cfg).shape == (3, 4)


class TestChannelTable:
    """The certificate for the scalar-channel table: against the order-1600
    Gauss-Hermite rule and a step-1/32 trapezoid across every piece, against
    the 50-digit true integrals at the piece ends and where the quadrature
    error peaks, exact at 0, refusing SNRs it does not hold, cheap to call,
    and a build that fails loudly."""

    # every eighth cut, 28 spans of 8 pieces each: the dense checks' 201
    # points per span reach every piece
    ENDS = (0.0,) + CHANNEL_CUTS[7::8]
    TOP = CHANNEL_CUTS[-1]

    @staticmethod
    def table(e):
        tab = replica._channel_table()
        return tab.value(0, e), tab.value(1, e)

    def test_matches_order_1600_across_every_piece(self):
        # 201 points per piece, ends included, and past the top piece
        e = np.concatenate(
            [np.linspace(lo, hi, 201) for lo, hi in zip(self.ENDS, self.ENDS[1:])]
            + [np.geomspace(1e-12, 1e-2, 50), np.linspace(self.TOP, 120.0, 201)]
        )
        bound = 1e-14 * np.maximum(1.0, e)
        for got, ref, name in zip(self.table(e), (mi_reference(e), fp_reference(e)), "IF"):
            err = np.abs(got - ref)
            assert np.all(err <= bound), (name, e[np.argmax(err / bound)], err.max())

    def test_reference_needs_no_package_quadrature(self, monkeypatch):
        # the order-1600 reference sums on its own rule, so it gives the same
        # values with the package's quadrature broken
        e = np.array([0.0, 0.5, 15.5, 80.0])
        want = mi_reference(e), fp_reference(e), mi_reference(2.0), fp_reference(2.0)

        def broken(*args, **kwargs):
            raise AssertionError("package quadrature called")

        monkeypatch.setattr(numerics, "gauss_expectation", broken)
        monkeypatch.setattr(numerics, "default_rule", broken)
        got = mi_reference(e), fp_reference(e), mi_reference(2.0), fp_reference(2.0)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_matches_fine_trapezoid_across_every_piece(self):
        # the same points against a reference within 6e-16 of the 50-digit
        # integrals; the table is off by up to 1.3e-15 on I (near e = 18.6)
        # and 7.3e-16 on F (near e = 1.07)
        e = np.concatenate(
            [np.linspace(lo, hi, 201) for lo, hi in zip(self.ENDS, self.ENDS[1:])]
            + [np.geomspace(1e-12, 1e-2, 50), np.linspace(self.TOP, 120.0, 201)]
        )
        bound = 2e-15 * np.maximum(1.0, e)
        for got, ref, name in zip(self.table(e), scalar_channel_fine(e), "IF"):
            err = np.abs(got - ref)
            assert np.all(err <= bound), (name, e[np.argmax(err / bound)], err.max())

    def test_against_50_digit_integrals(self):
        # relative above 1, since I = e - E[log cosh] cancels to ~ulp(e);
        # the worst is 6.7e-16 on F at e = 0.918 (over all 225 piece ends,
        # 1.1e-15 on I at e = 67.0); the rule it is fitted on is off most
        # near e = 15.5, and the order-800 rule near e = 18.8
        es = self.ENDS + (0.01, 0.5, 2.0, 10.0, 14.8, 15.5, 15.8, 18.8, 25.0, 50.0, 100.0)
        for e in es:
            i_mp, f_mp, _, _ = scalar_channel_mp(e)
            i_tab, f_tab = self.table(e)
            assert abs(i_tab - i_mp) <= 2e-15 * max(1.0, e), (e, i_tab, i_mp)
            assert abs(f_tab - f_mp) <= 2e-15 * max(1.0, e), (e, f_tab, f_mp)

    def test_constant_above_the_top_is_within_half_an_ulp(self):
        # log 2 and 1 both lie in [0.5, 1], where an ulp is 2**-53
        _, _, mi_gap, fp_gap = scalar_channel_mp(self.TOP)
        assert 0.0 < mi_gap < 2.0**-54 and 0.0 < fp_gap < 2.0**-54
        for e in (self.TOP, 100.0, 1e6):
            assert self.table(e) == (LOG2, 1.0)

    def test_exactly_zero_at_zero_snr(self):
        assert self.table(0.0) == (0.0, 0.0)
        assert [v.tolist() for v in self.table(np.zeros(3))] == [[0.0] * 3] * 2

    def test_negative_or_non_finite_snr_is_refused(self):
        # at overlap 1.5 and lambda 3 the effective SNR is negative
        cfg = make_config(rate=1.0, order=3)
        assert snr(1.5, cfg) < 0.0
        for f in (mi, fixed_point_map, energy):
            with pytest.raises(NumericalError, match="effective SNR"):
                f(1.5, cfg)
            with pytest.raises(NumericalError, match="effective SNR"):
                f(np.array([0.5, 1.5]), cfg)
        tab = replica._channel_table()
        for bad in (-5e-324, -1.0, math.nan, math.inf, -math.inf):
            for e in (bad, np.array([1.0, bad])):
                with pytest.raises(NumericalError, match="effective SNR"):
                    tab.value(0, e)

    CUT_SNRS = st.sampled_from(CHANNEL_CUTS)
    SNRS = st.one_of(
        st.floats(min_value=0.0, max_value=120.0),
        CUT_SNRS,
        CUT_SNRS.map(lambda c: math.nextafter(c, math.inf)),
    )

    @settings(max_examples=60, deadline=None)
    @given(es=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12), elements=SNRS))
    def test_float_snr_equals_its_entry_in_an_array(self, es):
        # a float takes the piece and the operations of its entry, at every
        # cut and one ulp above it too, and an array keeps its shape
        tab = replica._channel_table()
        for q in (0, 1):
            stacked = tab.value(q, es)
            assert stacked.shape == es.shape
            assert stacked.tolist() == [[tab.value(q, float(e)) for e in row] for row in es]

    def test_build_fails_when_off_between_its_points(self, monkeypatch):
        # degree 4 cannot follow I and F to CHANNEL_TOL on all 224 pieces
        replica._channel_table.cache_clear()
        monkeypatch.setattr(replica, "CHANNEL_DEGREE", 4)
        try:
            with pytest.raises(NumericalError, match="table failed its check"):
                energy(0.5, make_config(rate=1.0))
        finally:
            replica._channel_table.cache_clear()

    def test_scalar_calls_are_cheap(self):
        # best of several repeats, so load on the host cannot fail it: on 2
        # vCPUs the table took ~3-6 us per energy and ~2-3.5 us per map call
        cfg = make_config(rate=1.7, order=3)
        energy(0.4, cfg)
        for f, limit in ((energy, 16e-6), (fixed_point_map, 10e-6)):
            best = min(timeit.repeat(lambda: f(0.4, cfg), number=200, repeat=7)) / 200
            assert best < limit, (f.__name__, best)

    def test_build_is_cheap(self):
        # best of 3 cold builds; one takes ~20-30 ms
        def build():
            replica._channel_table.cache_clear()
            replica._channel_table()

        best = min(timeit.repeat(build, number=1, repeat=3))
        assert best < 0.1, best


class TestNodeBlocks:
    """The table as the solver calls it, on its 1001-point overlap grid and
    at single overlaps: against the order-1600 reference energy and map, and
    the log cosh expectation against the 50-digit integrals."""

    GRID = np.linspace(0.0, 1.0, 1001)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_grid_energy_equals_reference(self, order):
        for rate in (0.5, 1.7, 3.0):
            for sigma_sq in (0.05, 0.1, 1.0):
                cfg = make_config(rate=rate, sigma_sq=sigma_sq, order=order)
                err = np.abs(energy(self.GRID, cfg) - energy_reference(self.GRID, cfg))
                assert err.max() <= 1e-13, (rate, sigma_sq, err.max())
                err = np.abs(
                    fixed_point_map(self.GRID, cfg) - fixed_point_map_reference(self.GRID, cfg)
                )
                assert err.max() <= 1e-13, (rate, sigma_sq, err.max())

    def test_float_overlap_equals_reference(self):
        for order in (1, 2, 3, 4):
            cfg = make_config(rate=1.7, order=order)
            for m in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
                assert abs(energy(m, cfg) - energy_reference(m, cfg)) <= 1e-13, (order, m)
                assert (
                    abs(fixed_point_map(m, cfg) - fixed_point_map_reference(m, cfg)) <= 1e-13
                ), (order, m)

    def test_float_snr_equals_its_row(self):
        # at every evaluation cut and the next float above it, and on two
        # solver grids: the solver's refinement relies on a float SNR taking
        # the piece, and giving the value, of its row on the grid
        cuts = replica._channel_table().cuts
        grids = [snr(self.GRID, make_config(rate=1.7, order=o)) for o in (1, 3)]
        es = np.concatenate([[0.0, 5e-324], cuts, np.nextafter(cuts, np.inf)] + grids)
        for q in (0, 1):
            stacked = replica._channel_table().value(q, es)
            singles = [replica._channel_table().value(q, float(e)) for e in es]
            assert all(type(v) is float for v in singles)
            assert stacked.tolist() == singles

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_energy_equals_its_composed_terms(self, order):
        # one pass over phi(m) and phi'(m), bit for bit the sum of the terms
        for rate, sigma_sq in ((0.5, 0.05), (1.7, 0.1), (3.0, 1.0)):
            cfg = make_config(rate=rate, sigma_sq=sigma_sq, order=order)
            for m in (self.GRID, 0.0, 0.1, 0.25, 1 / 3, 0.5, 0.9, 1.0):
                composed = replica._as_float(
                    cfg.rate * mi(m, cfg)
                    + cd(m, cfg)
                    + (1 - m) * cd_prime(m, cfg)
                )
                got = energy(m, cfg)
                assert type(got) is type(composed) and np.array_equal(got, composed), (rate, m)

    def test_log_cosh_expectation_against_50_digits(self):
        # E[log cosh(e + sqrt(e) w)] = e - I(e), from an array and from floats
        tab = replica._channel_table()
        es = np.array([0.0, 0.05, 0.5, 2.0, 10.0, 25.0, 50.0])
        stacked = es - tab.value(0, es)
        for e, got in zip(es, stacked):
            ref = e - scalar_channel_mp(float(e))[0]
            single = float(e) - tab.value(0, float(e))
            for val in (got, single):
                assert abs(val - ref) <= 1e-14 * max(1.0, abs(ref)), (e, val, ref)

    def test_piece_cuts_add_no_grid_minimum(self):
        # a seam moves the energy by ~1e-15, which on a flat stretch could
        # pass ``inner <= neighbours``; the table's grid energy must find
        # the same interior grid minima as the order-1600 reference energy
        def minima(vals):
            inner = vals[1:-1]
            return np.flatnonzero((inner <= vals[:-2]) & (inner <= vals[2:])).tolist()

        for order in (1, 2, 3, 4):
            for sigma_sq in (0.05, 0.1, 0.3, 1.0):
                for rate in np.linspace(0.5, 3.0, 26):
                    cfg = make_config(rate=float(rate), sigma_sq=sigma_sq, order=order)
                    assert minima(energy(self.GRID, cfg)) == minima(
                        energy_reference(self.GRID, cfg)
                    ), (order, sigma_sq, rate)


class TestGridTerms:
    """The rate-free terms cached on the solver's grid: the same bits as the
    generic path, read-only, and formed once per rate scan."""

    @staticmethod
    def bits(a):
        return a.dtype, a.shape, a.tobytes()

    def test_solver_grid_equals_a_fresh_grid(self):
        grid, fresh = replica._GRID, np.linspace(0.0, 1.0, 1001)
        assert not grid.flags.writeable and self.bits(grid) == self.bits(fresh)
        for order in range(1, 9):
            for sigma_sq in (0.01, 0.1, 3.0):
                for power in (0.5, 2.0):
                    for rate in (0.05, 1.3, 2.9, 7.95):
                        cfg = make_config(rate=rate, sigma_sq=sigma_sq, power=power, order=order)
                        for f in (energy, fixed_point_map):
                            got, want = f(grid, cfg), f(fresh, cfg)
                            assert np.array_equal(got, want), (f.__name__, cfg)
                            assert self.bits(got) == self.bits(want), (f.__name__, cfg)

    def test_cached_terms_are_read_only(self):
        terms = replica._grid_terms(0.1, 1.0, 3)
        assert len(terms) == 5
        for a in terms:
            assert a.shape == (1001,) and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_formed_once_per_rate_scan(self):
        cfg = make_config(rate=1.0, sigma_sq=0.2718, power=1.5, order=3)
        before = replica._grid_terms.cache_info()
        scan_rates(cfg, [0.5, 1.0, 1.5, 2.0, 2.5])
        after = replica._grid_terms.cache_info()
        assert after.misses == before.misses + 1
        assert after.hits == before.hits + 4


class TestSolveOverlap:
    def test_linear_rate_two(self):
        sol = solve_overlap(make_config(rate=2.0, order=1))
        assert sol.info_rate == pytest.approx(1.07327015988218, abs=1e-5)
        assert 0.0 < sol.m_star < 1.0

    def test_cubic_below_transition(self):
        sol = solve_overlap(make_config(rate=1.0, order=3))
        assert sol.info_rate == pytest.approx(0.69314711510415, abs=1e-4)
        assert sol.m_star == 1.0

    def test_cubic_above_transition(self):
        sol = solve_overlap(make_config(rate=2.02, order=3))
        assert sol.info_rate == pytest.approx(C0, abs=1e-6)
        assert sol.m_star == 0.0

    def test_flat_stretch_at_high_order_does_not_displace_zero(self):
        # at lambda 6, m**6 vanishes against the energy's ulp near m = 0, so
        # the grid energy there ties energy(0) bit for bit; m - F(m) turns
        # nowhere on that stretch, so none of its grid minima is reported
        sol = solve_overlap(make_config(rate=3.4, sigma_sq=0.1, order=6))
        assert sol.m_star == 0.0 and sol.fixed_point_residual == 0.0
        assert sol.interior_minima == ()

    def test_info_rate_is_energy_at_minimizer(self):
        cfg = make_config(rate=3.0, order=1)
        sol = solve_overlap(cfg)
        assert sol.info_rate == pytest.approx(energy(sol.m_star, cfg), rel=1e-14)

    def test_envelope(self):
        for rate, lam in [(0.9, 1), (2.5, 1), (1.2, 3), (1.9, 3), (1.7, 2)]:
            sol = solve_overlap(make_config(rate=rate, order=lam))
            assert sol.info_rate <= sol.energy_at_0 + 1e-15
            assert sol.info_rate <= sol.energy_at_1 + 1e-15

    def test_interior_stationarity(self):
        for rate in (1.8, 2.0, 3.0, 6.0):
            cfg = make_config(rate=rate, order=1)
            sol = solve_overlap(cfg)
            assert GRID_STEP < sol.m_star < 1.0 - GRID_STEP
            assert sol.fixed_point_residual <= 1e-6

    def test_energy_slope_is_cd_curvature_times_fixed_point_gap(self):
        # the identity behind the root refinement: dE/dm = C_D''(m) (F(m) - m),
        # against a fourth-order central difference of the energy
        def cd_second(m, cfg):
            p, lam = cfg.power, cfg.order
            _, slope, gap = replica._overlap_terms(m, cfg)
            curv = p * lam * (lam - 1) * m ** (lam - 2) if lam >= 2 else 0.0
            return -(curv * gap + slope * slope) / (2.0 * gap * gap)

        h, m = 1e-4, np.linspace(0.05, 0.95, 37)
        for lam in (1, 2, 3):
            for rate in (0.8, 1.5, 2.5, 3.0):
                cfg = make_config(rate=rate, order=lam)
                diff = (
                    8.0 * (energy(m + h, cfg) - energy(m - h, cfg))
                    - (energy(m + 2 * h, cfg) - energy(m - 2 * h, cfg))
                ) / (12.0 * h)
                slope = cd_second(m, cfg) * (fixed_point_map(m, cfg) - m)
                assert np.all(np.abs(diff - slope) <= 1e-7 * np.abs(slope)), (lam, rate)

    def test_every_interior_minimum_is_a_fixed_point(self):
        # every reported minimum, winning or not, is a root of m - F(m), also
        # at lambda 6 and 8, where the energy near m = 0 is flat to rounding
        checked = 0
        for order in range(1, 9):
            for sigma_sq, power in ((0.03, 0.5), (0.3, 2.0), (1.0, 1.0)):
                for rate in (0.35, 1.25, 2.45, 4.05, 7.95):
                    cfg = make_config(rate=rate, sigma_sq=sigma_sq, power=power, order=order)
                    for m, e in solve_overlap(cfg).interior_minima:
                        assert abs(m - fixed_point_map(m, cfg)) <= 1e-9, (cfg, m)
                        assert e == energy(m, cfg)
                        checked += 1
        assert checked > 20

    def test_interior_minima_sit_at_the_fixed_point(self):
        # refined at the root of m - F(m), not on the flat energy
        checked = 0
        for rate in np.arange(0.7, 3.0 + 1e-9, 0.1):
            cfg = make_config(rate=float(rate), order=1)
            sol = solve_overlap(cfg)
            if GRID_STEP < sol.m_star < 1.0 - GRID_STEP:
                assert sol.fixed_point_residual <= 1e-9, rate
                checked += 1
        assert checked > 10

    def test_interior_minima_reported_even_when_endpoint_wins(self):
        # above the collapse the metastable basin near m=1 persists for a
        # while; the endpoint wins but the diagnostic list still carries the
        # refined interior competitor
        sol = solve_overlap(make_config(rate=3.0, order=3))
        assert sol.m_star == 0.0
        assert any(m > 0.9 for m, _ in sol.interior_minima)

    def test_coexisting_basins_both_reported_for_quadratic(self):
        sol = solve_overlap(make_config(rate=1.72, order=2))
        assert any(m < 0.1 for m, _ in sol.interior_minima)
        assert any(m > 0.9 for m, _ in sol.interior_minima)

    def test_tie_flag_at_coexistence(self):
        cfg = make_config(rate=1.0, order=3)

        def gap(rate):
            s = solve_overlap(replace(cfg, rate=rate))
            return s.energy_at_0 - s.energy_at_1 > 0.0

        coex = bisect_transition(gap, 1.5, 2.0, 1e-13)
        sol = solve_overlap(replace(cfg, rate=coex))
        assert sol.tie_flag
        assert sol.m_star == 1.0

    def test_linear_overlap_never_reaches_zero_and_decreases(self):
        rates = np.arange(0.2, 6.05, 0.2)
        stars = [solve_overlap(make_config(rate=float(r), order=1)).m_star for r in rates]
        assert all(m > 0.01 for m in stars)
        assert all(a >= b - 1e-12 for a, b in zip(stars, stars[1:]))


class TestReferenceSolver:
    """``solve_overlap`` against one float energy call per grid point by
    quadrature on the order-1600 Gauss-Hermite rule, with no table, and
    golden section on the energy in place of the root of ``m - F(m)``: at
    every field order the acceptance tests use, on both sides of the
    collapse, and at lambda 5 where the root lies in a half bracket."""

    @pytest.mark.parametrize(
        "order, rate, sigma_sq, power",
        [
            pytest.param(order, rate, 0.1, 1.0, id=f"{order}-{rate}")
            for order, rates in (
                (1, (0.9, 1.6, 2.0, 3.0)),
                (2, (1.3, 2.3)),
                (3, (1.2, 1.72, 1.95, 2.5)),
                (4, (1.3, 2.3)),
            )
            for rate in rates
        ]
        # m - F(m) reads +, -, + across the bracket of the minimum at 0.9665
        + [pytest.param(5, 1.1, 0.3, 0.5, id="5-1.1-0.3-0.5")],
    )
    def test_matches_reference_solver(self, order, rate, sigma_sq, power):
        cfg = make_config(rate=rate, sigma_sq=sigma_sq, power=power, order=order)
        got = solve_overlap(cfg)
        ref = solve_overlap_reference(cfg, GRID_STEP, replica.REFINE_TOL)
        assert replica.classify_regime(got.m_star) == replica.classify_regime(ref.m_star)
        assert got.tie_flag == ref.tie_flag
        assert len(got.interior_minima) == len(ref.interior_minima)
        assert abs(got.m_star - ref.m_star) <= 1e-6
        assert abs(got.fixed_point_residual - ref.fixed_point_residual) <= 1e-6
        for name in ("info_rate", "energy_at_0", "energy_at_1"):
            assert abs(getattr(got, name) - getattr(ref, name)) <= 1e-12, name
        for (m, e), (m_ref, e_ref) in zip(got.interior_minima, ref.interior_minima):
            assert abs(m - m_ref) <= 1e-6 and abs(e - e_ref) <= 1e-12

    def test_solution_is_slotted_and_frozen(self):
        sol = solve_overlap(make_config(rate=1.2, order=3))
        assert not hasattr(sol, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.m_star = 0.5
        assert sol == replace(sol)
        assert [f.name for f in dataclasses.fields(ReplicaSolution)] == [
            "m_star", "info_rate", "energy_at_0", "energy_at_1",
            "fixed_point_residual", "tie_flag", "interior_minima",
        ]


class TestScanRates:
    def test_linear_curve_monotone_and_endpoint_value(self):
        cfg = make_config(rate=1.0, order=1)
        rows = scan_rates(cfg, [0.2 + 0.2 * i for i in range(30)])
        rates = [r for r, _ in rows]
        infos = [s.info_rate for _, s in rows]
        assert rates[0] == 0.2 and rates[-1] == pytest.approx(6.0, abs=1e-12)
        assert all(a < b for a, b in zip(infos, infos[1:]))
        assert infos[-1] == pytest.approx(1.16293490921312, abs=1e-5)

    def test_cubic_scan_is_min_envelope_with_kink(self):
        cfg = make_config(rate=1.0, order=3)
        rows = scan_rates(cfg, [1.5 + 0.05 * i for i in range(11)])
        infos = np.array([s.info_rate for _, s in rows])
        stars = np.array([s.m_star for _, s in rows])
        assert stars[0] == 1.0 and stars[-1] == 0.0
        assert np.all(infos <= C0 + 1e-12)
        # flat at capacity after the collapse
        assert infos[-1] == pytest.approx(C0, abs=1e-9)

    def test_empty_range(self):
        cfg = make_config(rate=1.0, order=1)
        assert scan_rates(cfg, []) == []


class TestLocateCriticalRate:
    def test_cubic_matches_heuristic(self):
        cfg = make_config(rate=1.0, order=3)
        located = locate_critical_rate(cfg, 1.5, 2.0, tol=1e-4)
        assert abs(located - RSTAR) <= 0.005

    def test_linear_has_no_transition(self):
        cfg = make_config(rate=1.0, order=1)
        with pytest.raises(BracketError):
            locate_critical_rate(cfg, 1.5, 2.0, tol=1e-4)

    def test_quadratic_locates_a_first_order_jump(self):
        cfg = make_config(rate=1.0, order=2)
        located = locate_critical_rate(cfg, 1.5, 2.0, tol=1e-4)
        before = solve_overlap(replace(cfg, rate=located - 0.01)).m_star
        after = solve_overlap(replace(cfg, rate=located + 0.01)).m_star
        assert before - after > 0.4
        # recorded, not asserted against any reference value
        assert 1.5 < located < 2.0

    @staticmethod
    def _counted_locate(monkeypatch, cfg, lo, hi, tol):
        """``locate_critical_rate`` and the rates it solved, in order."""
        rates = []

        def counted(c):
            rates.append(c.rate)
            return solve_overlap(c)

        with monkeypatch.context() as patch:
            patch.setattr(replica, "solve_overlap", counted)
            located = locate_critical_rate(cfg, lo, hi, tol=tol)
        return located, rates

    @staticmethod
    def _plain_bisection(cfg, lo, hi, tol):
        return bisect_transition(
            lambda r: solve_overlap(replace(cfg, rate=r)).m_star < 0.5, lo, hi, tol
        )

    def test_bracket_ends_are_solved_once(self, monkeypatch):
        # the endpoint energies cross inside the bisection's final bracket:
        # two bracket-end solves and two that verify the final bracket
        cfg = make_config(rate=1.0, order=3)
        lo, hi, tol = 0.8 * RSTAR, 1.3 * RSTAR, 1e-4
        plain = self._plain_bisection(cfg, lo, hi, tol)
        located, rates = self._counted_locate(monkeypatch, cfg, lo, hi, tol)
        assert len(rates) == 4
        assert len(set(rates)) == len(rates)
        assert located == plain

    def test_fallback_bisection_reuses_every_solve(self, monkeypatch):
        # at sigma^2 0.3 an interior minimum wins near the endpoint-energy
        # crossing, so the verification fails and the plain bisection runs
        cfg = make_config(rate=1.0, sigma_sq=0.3, power=1.0, order=3)
        heuristic = critical_rate_heuristic(1.0, 0.3)
        lo, hi, tol = 0.8 * heuristic, 1.3 * heuristic, 1e-4
        plain = self._plain_bisection(cfg, lo, hi, tol)
        located, rates = self._counted_locate(monkeypatch, cfg, lo, hi, tol)
        steps = math.ceil(math.log2((hi - lo) / tol))
        assert 4 < len(rates) <= 2 + steps + 2
        assert len(set(rates)) == len(rates)
        assert located == plain

    def test_bad_bracket_or_tol_is_refused_before_any_solve(self, monkeypatch):
        cfg = make_config(rate=1.0, order=3)
        monkeypatch.setattr(replica, "solve_overlap", lambda c: pytest.fail("solved"))
        for tol in (0.0, -1e-4, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive"):
                locate_critical_rate(cfg, 0.8 * RSTAR, 1.3 * RSTAR, tol=tol)
        for lo, hi in ((2.0, 1.5), (1.7, 1.7)):
            with pytest.raises(BracketError, match="degenerate bracket"):
                locate_critical_rate(cfg, lo, hi, tol=1e-4)

    def test_same_float_as_plain_bisection(self, monkeypatch):
        tol, paths = 1e-4, set()
        for lam in (2, 3, 4):
            for sigma_sq in (0.05, 0.1, 0.3):
                for power in (1.0, 1.7):
                    cfg = make_config(rate=1.0, sigma_sq=sigma_sq, power=power, order=lam)
                    heuristic = critical_rate_heuristic(power, sigma_sq)
                    lo, hi = 0.8 * heuristic, 1.3 * heuristic
                    try:
                        located, rates = self._counted_locate(monkeypatch, cfg, lo, hi, tol)
                    except BracketError:
                        continue
                    case = (lam, sigma_sq, power)
                    assert located == self._plain_bisection(cfg, lo, hi, tol), case
                    assert len(set(rates)) == len(rates), case
                    paths.add("crossing" if len(rates) == 4 else "fallback")
        assert paths == {"crossing", "fallback"}
