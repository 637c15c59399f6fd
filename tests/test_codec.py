import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from gfwiretap import field
from gfwiretap.codec import (
    BinningPlan,
    CodecConfig,
    bipolar_to_message,
    build_binning,
    decode,
    encode,
    message_to_bipolar,
    mmse_estimate,
    random_key,
)
from gfwiretap.errors import BudgetError, ConfigurationError
from gfwiretap.field import FieldSpec, evaluate, sample_field
from oracles import build_binning_reference, evaluate_rows_reference


def make_setup(n=16, k=4, k_tilde=2, order=3, sigma_b=0.1, sigma_e=1.0, seeds=(0, 1, 2, 3)):
    cfg = CodecConfig(
        n=n,
        k=k,
        k_tilde=k_tilde,
        order=order,
        sigma_b_sq=sigma_b,
        sigma_e_sq=sigma_e,
        field_seed=seeds[0],
        perm_seed=seeds[1],
        key_seed=seeds[2],
        noise_seed=seeds[3],
        allow_low_order=order < 3,
    )
    plan = build_binning(cfg.k, cfg.k_tilde, cfg.perm_seed)
    fld = sample_field(
        FieldSpec(n_out=cfg.n, dim=cfg.k_tot, order=cfg.order, power=cfg.power, seed=cfg.field_seed)
    )
    return cfg, fld, plan


class TestCodecConfig:
    def test_key_budget_defaults_from_channel(self):
        cfg = CodecConfig(n=16, k=4, sigma_b_sq=0.1, sigma_e_sq=1.0)
        assert cfg.k_tilde == 8  # ceil(16 * C(1) / log 2)
        assert not cfg.k_tilde_overridden

    def test_override_recorded(self):
        cfg = CodecConfig(n=16, k=4, k_tilde=2, sigma_b_sq=0.1, sigma_e_sq=1.0)
        assert cfg.k_tilde == 2 and cfg.k_tilde_overridden

    def test_low_order_needs_ablation_flag(self):
        with pytest.raises(ConfigurationError):
            CodecConfig(n=8, k=2, order=1, sigma_b_sq=0.1, sigma_e_sq=1.0)
        cfg = CodecConfig(
            n=8, k=2, order=1, sigma_b_sq=0.1, sigma_e_sq=1.0, allow_low_order=True
        )
        assert cfg.order == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CodecConfig(n=0, k=1, sigma_b_sq=0.1, sigma_e_sq=1.0)
        with pytest.raises(ValueError):
            CodecConfig(n=4, k=1, sigma_b_sq=-0.1, sigma_e_sq=1.0)


class TestMessageBits:
    def test_zero_is_all_minus(self):
        assert np.array_equal(message_to_bipolar(0, 3), np.array([-1.0, -1.0, -1.0]))

    def test_max_is_all_plus(self):
        assert np.array_equal(message_to_bipolar(2**5 - 1, 5), np.ones(5))

    def test_exhaustive_round_trip(self):
        for m in range(2**6):
            assert bipolar_to_message(message_to_bipolar(m, 6)) == m

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=40))
    def test_round_trip_any_width(self, k):
        rng = np.random.default_rng(k)
        m = int(rng.integers(0, 2**k))
        assert bipolar_to_message(message_to_bipolar(m, k)) == m

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            message_to_bipolar(8, 3)
        with pytest.raises(ValueError):
            message_to_bipolar(-1, 3)

    def test_rejects_non_bipolar(self):
        with pytest.raises(ValueError):
            bipolar_to_message(np.array([1.0, 0.0]))


class TestBinning:
    def test_basic_layout(self):
        plan = build_binning(4, 2, perm_seed=0)
        assert plan.width == 3
        assert plan.k_tot == 6 and plan.k_tilde == 2
        assert 0 <= plan.key_positions[0] < 3 <= plan.key_positions[1] < 6

    def test_single_bin(self):
        plan = build_binning(5, 1, perm_seed=7)
        assert plan.width == 6
        assert plan.key_positions.size == 1

    def test_deterministic(self):
        a = build_binning(6, 3, perm_seed=11)
        b = build_binning(6, 3, perm_seed=11)
        assert np.array_equal(a.permutation, b.permutation)

    def test_round_trip_inverse(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            plan = build_binning(5, 2, perm_seed=seed)
            v = rng.normal(size=7)
            permuted = np.empty(7)
            permuted[plan.permutation] = v
            assert np.array_equal(permuted[plan.permutation], v)

    def test_one_key_per_bin_many_seeds(self):
        for k, k_tilde in [(4, 2), (5, 2), (7, 3), (3, 3), (9, 4)]:
            width = 1 + -(-k // k_tilde)
            for seed in range(50):
                plan = build_binning(k, k_tilde, perm_seed=seed)
                total = k + k_tilde
                for ell in range(k_tilde):
                    lo, hi = ell * width, min((ell + 1) * width, total)
                    inside = [p for p in plan.key_positions if lo <= p < hi]
                    assert len(inside) == 1

    def test_matches_per_bin_reference(self):
        # k_tilde = 1, full last bins, and short last bins of 1, 2 and 3
        for k, k_tilde in [(5, 1), (1, 1), (4, 2), (7, 3), (9, 4), (11, 4), (15, 6)]:
            for seed in range(200):
                plan = build_binning(k, k_tilde, perm_seed=seed)
                expected = build_binning_reference(k, k_tilde, seed)
                assert np.array_equal(plan.permutation, expected), (k, k_tilde, seed)

    def test_degenerate_layout_rejected(self):
        # k=2, k_tilde=4 gives width 2, so the last bin starts past the end
        with pytest.raises(ConfigurationError):
            build_binning(2, 4, perm_seed=0)

    def test_uniform_over_construction_support(self):
        # k=2, k_tilde=2: 2 x 2 key placements times 2 message orders = 8
        # equally likely permutations
        counts = {}
        n_seeds = 100_000
        for seed in range(n_seeds):
            plan = build_binning(2, 2, perm_seed=seed)
            counts[tuple(plan.permutation)] = counts.get(tuple(plan.permutation), 0) + 1
        assert len(counts) == 8
        expected = n_seeds / 8
        tol = 4.0 * math.sqrt(n_seeds * (1 / 8) * (7 / 8))
        for count in counts.values():
            assert abs(count - expected) <= tol

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            BinningPlan(
                permutation=np.array([0, 0, 1, 2]),
                width=2,
                key_positions=np.array([0, 2]),
            )
        with pytest.raises(ValueError):
            # both keys land in bin 0
            BinningPlan(
                permutation=np.array([0, 1, 2, 3]),
                width=2,
                key_positions=np.array([0, 1]),
            )
        # the first offending bin is named, here the empty middle one
        with pytest.raises(ValueError, match=r"^bin 1 \(positions \[2, 4\)\) holds 0 key"):
            BinningPlan(
                permutation=np.array([0, 4, 5, 1, 2, 3]),
                width=2,
                key_positions=np.array([0, 4, 5]),
            )
        # a key past the last bin leaves a bin empty
        with pytest.raises(ValueError, match=r"^bin 1 \(positions \[3, 6\)\) holds 0 key"):
            BinningPlan(
                permutation=np.array([0, 6, 1, 2, 3, 4, 5]),
                width=3,
                key_positions=np.array([0, 6]),
            )


class TestEncode:
    def test_identity_permutation_linear_field_is_matrix_product(self):
        # with a single bin the identity permutation is a valid plan
        cfg, fld, _ = make_setup(n=8, k=4, k_tilde=1, order=1, seeds=(5, 6, 7, 8))
        plan = BinningPlan(
            permutation=np.arange(5), width=6, key_positions=np.array([0])
        )
        frame = encode(cfg, fld, plan, m=9, key=np.array([-1.0]))
        concat = np.concatenate([frame.key, frame.s])
        assert np.array_equal(frame.s_tilde, concat)
        assert np.array_equal(frame.x, fld.scale * (fld.coeffs @ concat))

    def test_frame_invariants(self):
        cfg, fld, plan = make_setup()
        key = random_key(cfg.k_tilde, np.random.default_rng(0))
        frame = encode(cfg, fld, plan, m=11, key=key)
        concat = np.concatenate([key, frame.s])
        assert np.array_equal(frame.s_tilde[plan.permutation], concat)
        assert np.array_equal(frame.x, evaluate(fld, frame.s_tilde))

    def test_distinct_inputs_distinct_codewords(self):
        cfg, fld, plan = make_setup(n=16, k=6, k_tilde=2)
        rng = np.random.default_rng(1)
        for _ in range(100):
            m1, m2 = rng.integers(0, 2**cfg.k, size=2)
            key = random_key(cfg.k_tilde, rng)
            if m1 == m2:
                continue
            x1 = encode(cfg, fld, plan, int(m1), key).x
            x2 = encode(cfg, fld, plan, int(m2), key).x
            assert not np.array_equal(x1, x2)

    def test_spec_mismatch_rejected(self):
        cfg, fld, plan = make_setup()
        wrong = sample_field(FieldSpec(n_out=cfg.n, dim=cfg.k_tot + 1, order=3, power=1.0, seed=0))
        with pytest.raises(ConfigurationError):
            encode(cfg, wrong, plan, m=0, key=np.ones(cfg.k_tilde))

    def test_bad_key_rejected(self):
        cfg, fld, plan = make_setup()
        with pytest.raises(ValueError):
            encode(cfg, fld, plan, m=0, key=np.zeros(cfg.k_tilde))


from oracles import exact_posterior_mean


class TestMmseEstimate:
    def test_noiseless_concentrates(self):
        cfg, fld, plan = make_setup()
        frame = encode(cfg, fld, plan, m=5, key=np.array([1.0, -1.0]))
        r = mmse_estimate(fld, frame.x, 1e-12)
        assert np.array_equal(r, frame.s_tilde)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            spec = FieldSpec(n_out=4, dim=3, order=1, power=1.0, seed=trial)
            fld = sample_field(spec)
            y = rng.normal(size=4)
            sigma_sq = float(rng.uniform(0.05, 2.0))
            r = mmse_estimate(fld, y, sigma_sq)
            assert np.max(np.abs(r - exact_posterior_mean(fld, y, sigma_sq))) <= 1e-12

    def test_odd_order_posterior_sign_symmetry(self):
        for order in (1, 3):
            spec = FieldSpec(n_out=6, dim=4, order=order, power=1.0, seed=3)
            fld = sample_field(spec)
            y = np.random.default_rng(4).normal(size=6)
            r_plus = mmse_estimate(fld, y, 0.5)
            r_minus = mmse_estimate(fld, -y, 0.5)
            assert np.max(np.abs(r_plus + r_minus)) <= 1e-12

    def test_bounded(self):
        spec = FieldSpec(n_out=4, dim=5, order=3, power=1.0, seed=9)
        fld = sample_field(spec)
        rng = np.random.default_rng(10)
        for _ in range(20):
            r = mmse_estimate(fld, rng.normal(size=4), float(rng.uniform(0.01, 5.0)))
            assert np.all(np.abs(r) <= 1.0)

    @pytest.mark.parametrize("dim", [11, 13])
    def test_matches_brute_force_with_partial_hadamard_groups(self, dim):
        # 11 and 13 bits leave a partial last transform group; the truth is
        # the top pattern, so the heaviest weights come from the last entries
        fld = sample_field(FieldSpec(n_out=3, dim=dim, order=3, power=1.0, seed=16))
        rng = np.random.default_rng(17)
        y = evaluate(fld, np.ones(dim)) + rng.normal(0.0, 0.7, size=3)
        rows = ((np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1) * 2.0 - 1.0
        resid = y - evaluate_rows_reference(fld, rows)
        logw = -0.5 * np.einsum("ij,ij->i", resid, resid) / 0.5
        weights = np.exp(logw - logsumexp(logw))
        assert np.max(np.abs(mmse_estimate(fld, y, 0.5) - weights @ rows)) <= 1e-12

    def test_hadamard_group_size_invariance(self, monkeypatch):
        # the transform's group size changes only the order of the sums
        spec = FieldSpec(n_out=4, dim=7, order=2, power=1.0, seed=14)
        fld = sample_field(spec)
        y = np.random.default_rng(15).normal(size=4)
        whole = mmse_estimate(fld, y, 0.7)
        for bits in (1, 2, 3, 5):
            monkeypatch.setattr(field, "_HADAMARD_BITS", bits)
            assert np.max(np.abs(mmse_estimate(fld, y, 0.7) - whole)) <= 1e-12

    def test_budget_and_input_errors(self):
        spec = FieldSpec(n_out=2, dim=4, order=1, power=1.0, seed=0)
        fld = sample_field(spec)
        with pytest.raises(ValueError):
            mmse_estimate(fld, np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            mmse_estimate(fld, np.zeros(3), 1.0)


class TestDecode:
    def test_exact_round_trip(self):
        cfg, fld, plan = make_setup()
        for m in (0, 5, 11, 15):
            frame = encode(cfg, fld, plan, m, key=np.array([1.0, 1.0]))
            decoded, s_hat = decode(cfg, plan, frame.s_tilde)
            assert decoded == m
            assert np.array_equal(s_hat, frame.s)

    def test_negated_estimate_flips_every_bit(self):
        cfg, fld, plan = make_setup()
        frame = encode(cfg, fld, plan, 9, key=np.array([-1.0, 1.0]))
        decoded, s_hat = decode(cfg, plan, -frame.s_tilde)
        assert np.array_equal(s_hat, -frame.s)
        assert decoded == (2**cfg.k - 1) ^ 9

    def test_sign_of_zero_is_plus_one(self):
        cfg, _, plan = make_setup()
        decoded, s_hat = decode(cfg, plan, np.zeros(cfg.k_tot))
        assert np.array_equal(s_hat, np.ones(cfg.k))
        assert decoded == 2**cfg.k - 1

    def test_noiseless_end_to_end(self):
        cfg, fld, plan = make_setup(sigma_b=1e-12)
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = int(rng.integers(0, 2**cfg.k))
            key = random_key(cfg.k_tilde, rng)
            frame = encode(cfg, fld, plan, m, key)
            r = mmse_estimate(fld, frame.x, cfg.sigma_b_sq)
            decoded, _ = decode(cfg, plan, r)
            assert decoded == m

    def test_reliability_bound_on_noisy_decodes(self):
        cfg, fld, plan = make_setup(sigma_b=0.5)
        rng = np.random.default_rng(21)
        for _ in range(25):
            m = int(rng.integers(0, 2**cfg.k))
            key = random_key(cfg.k_tilde, rng)
            frame = encode(cfg, fld, plan, m, key)
            y = frame.x + rng.normal(0.0, math.sqrt(cfg.sigma_b_sq), size=cfg.n)
            r = mmse_estimate(fld, y, cfg.sigma_b_sq)
            signs = np.where(r >= 0, 1.0, -1.0)
            f = np.count_nonzero(signs != frame.s_tilde) / cfg.k_tot
            overlap = float(frame.s_tilde @ r) / cfg.k_tot
            assert f <= 1.0 - overlap

