import math

import numpy as np
import pytest

from gfwiretap.channel import (
    LOG2,
    WiretapParams,
    awgn_capacity,
    bin_size,
    critical_rate_heuristic,
    key_length,
    secrecy_capacity,
)
from gfwiretap.errors import ConfigurationError

# 0.5*(log 11 - log 2) evaluated at 30 significant digits
CS_P1_B01_E1 = 0.85237404611921261732


class TestAwgnCapacity:
    def test_zero(self):
        assert awgn_capacity(0.0) == 0.0

    def test_snr_ten(self):
        assert awgn_capacity(10.0) == pytest.approx(1.19894763639919, abs=1e-12)

    def test_snr_one_is_half_log_two(self):
        assert awgn_capacity(1.0) == pytest.approx(0.5 * LOG2, abs=1e-15)
        assert 0.5 * LOG2 == pytest.approx(0.346573590279973, abs=1e-14)

    def test_negative_snr(self):
        with pytest.raises(ValueError):
            awgn_capacity(-0.1)

    def test_increasing_and_concave(self):
        snrs = np.linspace(0.0, 40.0, 200)
        caps = np.array([awgn_capacity(s) for s in snrs])
        first = np.diff(caps)
        assert np.all(first > 0.0)
        assert np.all(np.diff(first) < 0.0)


class TestSecrecyCapacity:
    def test_classic_point(self):
        p = WiretapParams(power=1.0, sigma_b_sq=0.1, sigma_e_sq=1.0)
        assert secrecy_capacity(p) == pytest.approx(CS_P1_B01_E1, abs=1e-14)

    def test_symmetric_channels(self):
        p = WiretapParams(power=2.0, sigma_b_sq=0.5, sigma_e_sq=0.5)
        assert secrecy_capacity(p) == 0.0

    def test_degraded_main_channel_clamps(self):
        p = WiretapParams(power=1.0, sigma_b_sq=1.0, sigma_e_sq=0.1)
        assert secrecy_capacity(p) == 0.0

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            power, sb, se = rng.uniform(0.01, 10.0, size=3)
            p = WiretapParams(power, sb, se)
            cs = secrecy_capacity(p)
            assert cs >= 0.0
            if sb < se:
                direct = awgn_capacity(power / sb) - awgn_capacity(power / se)
                assert cs == direct

    def test_params_validation(self):
        with pytest.raises(ValueError):
            WiretapParams(power=0.0, sigma_b_sq=0.1, sigma_e_sq=1.0)
        with pytest.raises(ValueError):
            WiretapParams(power=1.0, sigma_b_sq=-0.1, sigma_e_sq=1.0)
        with pytest.raises(ValueError):
            WiretapParams(power=1.0, sigma_b_sq=0.1, sigma_e_sq=math.inf)


class TestKeyLength:
    def test_exact_half_rate(self):
        assert key_length(100, 1.0, 1.0) == 50

    def test_single_use(self):
        assert key_length(1, 1.0, 1.0) == 1

    def test_strong_eavesdropper_channel(self):
        # ceil(64 * C(10) / log 2) = ceil(110.7018...) = 111
        assert key_length(64, 1.0, 0.1) == 111

    def test_rate_converges(self):
        target = awgn_capacity(1.0 / 0.3) / LOG2
        for n in (10, 100, 1000, 10000):
            assert abs(key_length(n, 1.0, 0.3) / n - target) <= 1.0 / n

    def test_validation(self):
        with pytest.raises(ValueError):
            key_length(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            key_length(4, -1.0, 1.0)

    @pytest.mark.parametrize(
        "power, sigma_e_sq, name",
        [
            (math.nan, 1.0, "power"),
            (math.inf, 1.0, "power"),
            (0.0, 1.0, "power"),
            (1.0, math.nan, "sigma_e_sq"),
            (1.0, math.inf, "sigma_e_sq"),
            (1.0, -1.0, "sigma_e_sq"),
        ],
    )
    def test_refuses_non_finite_or_non_positive_by_name(self, power, sigma_e_sq, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            key_length(4, power, sigma_e_sq)

    def test_zero_capacity_is_configuration_error(self):
        # the SNR underflows to exactly zero here
        with pytest.raises(ConfigurationError):
            key_length(10, 5e-324, 1e300)


class TestBinSize:
    def test_exact_division(self):
        assert bin_size(4, 2) == 3

    def test_ceiling(self):
        assert bin_size(5, 2) == 4

    def test_equal_sizes(self):
        assert bin_size(7, 7) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            bin_size(0, 1)


class TestCriticalRateHeuristic:
    def test_reference_point(self):
        assert critical_rate_heuristic(1.0, 0.1) == pytest.approx(
            1.72971580931865, abs=1e-10
        )

    def test_unit_snr(self):
        assert critical_rate_heuristic(2.0, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_snr_three_is_one(self):
        assert critical_rate_heuristic(1.0, 1.0 / 3.0) == pytest.approx(1.0, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_rate_heuristic(0.0, 1.0)

    @pytest.mark.parametrize(
        "power, sigma_sq, name",
        [
            (math.nan, 1.0, "power"),
            (math.inf, 1.0, "power"),
            (1.0, math.nan, "sigma_sq"),
            (1.0, math.inf, "sigma_sq"),
            (1.0, 0.0, "sigma_sq"),
        ],
    )
    def test_refuses_non_finite_or_non_positive_by_name(self, power, sigma_sq, name):
        # an infinite noise once gave a rate of 0.0
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            critical_rate_heuristic(power, sigma_sq)
