import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from scipy.special import logsumexp

import gfwiretap
from gfwiretap import codec as codec_module, field
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
from gfwiretap.errors import BudgetError, ConfigurationError, NumericalError
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

    @pytest.mark.parametrize("name", ["field_seed", "perm_seed", "key_seed", "noise_seed"])
    def test_non_integer_seed_is_refused_by_name(self, name):
        # field_seed=2.9 was once kept as it was
        for seed in (2.9, 3.0, np.float64(1.0)):
            with pytest.raises(ValueError, match=f"{name} must be a 64-bit unsigned integer"):
                CodecConfig(n=4, k=1, sigma_b_sq=0.1, sigma_e_sq=1.0, **{name: seed})


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

    def test_round_trip_past_64_bits(self):
        # k = 70 puts six always-clear bits above a 64-bit message
        for m in (0, 1, 2**63 + 12345, 2**64 - 1):
            s = message_to_bipolar(m, 70)
            assert np.array_equal(s[64:], -np.ones(6))
            assert bipolar_to_message(s) == m
        top = np.ones(70)
        assert bipolar_to_message(top) == 2**70 - 1
        # messages of 65 and 66 bits, which no uint64 holds
        for m in (2**64, 2**65 + 3, 2**66 - 1):
            assert bipolar_to_message(message_to_bipolar(m, 66)) == m

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
        # the one check of a plan's permutation: the codeword table's bit
        # masks are derived from it unchecked
        with pytest.raises(ValueError, match="not a bijection"):
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


def brute_force_mean(fld, y, sigma_sq):
    """Posterior mean over every pattern, each scored by ``evaluate``.

    Residuals and weights are long doubles (80-bit on x86-64): a double
    log-weight rounds by ~eps times its own size, which exceeds 1e-12 for y
    far from every codeword.
    """
    dim = fld.spec.dim
    rows = ((np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1) * 2.0 - 1.0
    outputs = np.array([evaluate(fld, u) for u in rows], dtype=np.longdouble)
    resid = np.asarray(y, dtype=np.longdouble) - outputs
    logw = np.einsum("ij,ij->i", resid, resid) / (-2.0 * sigma_sq)
    weights = np.exp(logw - logw.max())
    return (weights @ rows / weights.sum()).astype(float)


def no_enumeration(*args, **kwargs):
    raise AssertionError("the decoder took the per-output route")


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

    @pytest.mark.parametrize("dim", [1, 2, 5, 11])
    def test_split_marginals_match_brute_force(self, dim):
        # odd dims split the pattern unevenly (the low half takes the extra
        # bit); dim 1 leaves no high bits at all
        fld = sample_field(FieldSpec(n_out=3, dim=dim, order=3, power=1.0, seed=30 + dim))
        rng = np.random.default_rng(dim)
        truth = rng.integers(0, 2, size=dim) * 2.0 - 1.0
        y = evaluate(fld, truth) + rng.normal(0.0, 0.7, size=3)
        rows = ((np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1) * 2.0 - 1.0
        resid = y - evaluate_rows_reference(fld, rows)
        logw = -0.5 * np.einsum("ij,ij->i", resid, resid) / 0.5
        weights = np.exp(logw - logsumexp(logw))
        r = mmse_estimate(fld, y, 0.5)
        assert r.shape == (dim,)
        assert np.max(np.abs(r - weights @ rows)) <= 1e-12

    def test_block_cap_invariance(self, monkeypatch):
        # the block cap changes only how outputs are grouped in the Gram
        # matrix of the Gram route, which this decode takes (64 sets)
        monkeypatch.setattr(codec_module, "_enumerate_outputs", no_enumeration)
        spec = FieldSpec(n_out=13, dim=8, order=3, power=1.0, seed=18)
        fld = sample_field(spec)
        y = np.random.default_rng(19).normal(size=13)
        whole = mmse_estimate(fld, y, 0.3)
        for cap_rows in (1, 2, 5, 13):
            monkeypatch.setattr(field, "_BLOCK_FLOATS", cap_rows * 64)
            assert np.max(np.abs(mmse_estimate(fld, y, 0.3) - whole)) <= 1e-13

    def test_peak_memory_does_not_grow_with_n(self, monkeypatch):
        # at dim 12 the Gram route sums 232 sets over blocks of 35 outputs,
        # so n_out 32 and 256 differ only in how many blocks pass through
        monkeypatch.setattr(codec_module, "_enumerate_outputs", no_enumeration)

        def peak(n_out):
            fld = sample_field(FieldSpec(n_out=n_out, dim=12, order=3, power=1.0, seed=20))
            y = evaluate(fld, np.ones(12))
            mmse_estimate(fld, y, 0.01)  # builds the cached pair index
            tracemalloc.start()
            try:
                mmse_estimate(fld, y, 0.01)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(32), peak(256)
        assert large <= 1.1 * small, (small, large)
        sets = 12 + math.comb(12, 3)
        assert field._BLOCK_FLOATS // sets == 35
        # the Gram, one block product and the gathered upper triangle (2.5
        # sets**2 floats), one block copy and at most six 2**dim arrays
        assert large <= 8 * (5 * sets**2 // 2 + field._BLOCK_FLOATS + 6 * 2**12), large

    def test_hadamard_group_size_invariance(self, monkeypatch):
        # the transform's group size changes only the order of the sums
        spec = FieldSpec(n_out=4, dim=7, order=2, power=1.0, seed=14)
        fld = sample_field(spec)
        y = np.random.default_rng(15).normal(size=4)
        whole = mmse_estimate(fld, y, 0.7)
        for bits in (1, 2, 3, 5):
            monkeypatch.setattr(field, "_HADAMARD_BITS", bits)
            assert np.max(np.abs(mmse_estimate(fld, y, 0.7) - whole)) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_on_oracle_draws(self, seed):
        # draws like the benchmark's decoder oracle, which holds every run
        # to 1e-9: n 16, dim 10, order 3, at the receiver's and the
        # eavesdropper's noise in turn
        for j, sigma_sq in enumerate((0.01, 1.0, 0.01, 1.0)):
            seeds = np.random.SeedSequence((seed, j)).generate_state(2, dtype=np.uint64)
            fld = sample_field(FieldSpec(16, 10, 3, 1.0, int(seeds[0])))
            rng = np.random.default_rng(int(seeds[1]))
            u = rng.integers(0, 2, size=10) * 2.0 - 1.0
            y = evaluate(fld, u) + rng.normal(0.0, math.sqrt(sigma_sq), size=16)
            gap = np.max(np.abs(mmse_estimate(fld, y, sigma_sq) - brute_force_mean(fld, y, sigma_sq)))
            assert gap <= 1e-12, (j, sigma_sq, gap)

    def test_gram_route_matches_brute_force(self, monkeypatch):
        # order 3 at dim 10: the 130 sets' pairs cost less than one output's
        # transform, and this posterior keeps the Gram route's scores
        assert field._gram_pairs(10, 3) is not None
        monkeypatch.setattr(codec_module, "_enumerate_outputs", no_enumeration)
        fld = sample_field(FieldSpec(n_out=24, dim=10, order=3, power=1.0, seed=40))
        rng = np.random.default_rng(41)
        y = evaluate(fld, rng.integers(0, 2, size=10) * 2.0 - 1.0) + rng.normal(0.0, 0.3, size=24)
        gap = np.max(np.abs(mmse_estimate(fld, y, 0.09) - brute_force_mean(fld, y, 0.09)))
        assert gap <= 1e-12

    @pytest.mark.parametrize("dim", [10, 12])
    def test_transform_route_matches_brute_force(self, dim):
        # order 5: 382 sets at dim 10 and 1024 at 12, whose pairs cost more
        # than one output's transform
        assert field._gram_pairs(dim, 5) is None
        fld = sample_field(FieldSpec(n_out=6, dim=dim, order=5, power=1.0, seed=50 + dim))
        rng = np.random.default_rng(dim)
        y = evaluate(fld, rng.integers(0, 2, size=dim) * 2.0 - 1.0) + rng.normal(0.0, 0.5, size=6)
        gap = np.max(np.abs(mmse_estimate(fld, y, 0.25) - brute_force_mean(fld, y, 0.25)))
        assert gap <= 1e-12

    def test_many_outputs_at_small_noise_match_brute_force(self, monkeypatch):
        # |y|**2 / (2 sigma_sq) is ~5e6 nats here, all of it cancelled by the
        # expanded square; the posterior sits on one candidate, so the Gram
        # route's scores are kept
        monkeypatch.setattr(codec_module, "_enumerate_outputs", no_enumeration)
        fld = sample_field(FieldSpec(n_out=1024, dim=10, order=3, power=1.0, seed=60))
        rng = np.random.default_rng(61)
        y = evaluate(fld, rng.integers(0, 2, size=10) * 2.0 - 1.0) + rng.normal(0.0, 1e-2, size=1024)
        gap = np.max(np.abs(mmse_estimate(fld, y, 1e-4) - brute_force_mean(fld, y, 1e-4)))
        assert gap <= 1e-12

    def test_spread_posterior_at_small_noise_is_rescored_directly(self, monkeypatch):
        # one output over 2**11 candidates leaves many within a few nats of
        # the top at sigma_sq 1e-4; the expanded square's scores put this
        # mean 8.8e-13 off, so the per-output route scores it instead
        calls = []

        def counted(*args):
            calls.append(args)
            return field._enumerate_outputs(*args)

        monkeypatch.setattr(codec_module, "_enumerate_outputs", counted)
        fld = sample_field(FieldSpec(n_out=1, dim=11, order=3, power=1.0, seed=70))
        rng = np.random.default_rng(71)
        y = evaluate(fld, rng.integers(0, 2, size=11) * 2.0 - 1.0) + rng.normal(0.0, 1e-2, size=1)
        gap = np.max(np.abs(mmse_estimate(fld, y, 1e-4) - brute_force_mean(fld, y, 1e-4)))
        assert calls and gap <= 1e-12

    def test_subnormal_noise_is_numerical_error(self):
        fld = sample_field(FieldSpec(n_out=8, dim=4, order=3, power=1.0, seed=80))
        y = evaluate(fld, np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sigma_sq in (1e-310, 1e-320):
                with pytest.raises(NumericalError, match=f"sigma_sq={sigma_sq!r}"):
                    mmse_estimate(fld, y, sigma_sq)
            assert np.array_equal(mmse_estimate(fld, y, 1e-305), np.ones(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_y_is_refused_by_name(self, monkeypatch, bad):
        # refused before any work, without a warning on the way
        monkeypatch.setattr(codec_module, "_gram_pairs", no_enumeration)
        fld = sample_field(FieldSpec(n_out=4, dim=4, order=3, power=1.0, seed=82))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="y must be finite"):
                mmse_estimate(fld, [bad, 0.0, 0.0, 0.0], 0.1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        order=st.integers(min_value=1, max_value=4),
        dim=st.integers(min_value=1, max_value=11),
        n_out=st.integers(min_value=1, max_value=256),
        log_sigma_sq=st.floats(min_value=-5.0, max_value=2.0),
        power=st.floats(min_value=0.1, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        far=st.booleans(),
    )
    # order 3 at dim 11 is 176 sets, so from 17 outputs each Gram block's
    # product reaches field._PRODUCT_MADDS and is split into row slices
    @example(order=3, dim=11, n_out=32, log_sigma_sq=-2.0, power=1.0, seed=90, far=False)
    @example(order=3, dim=11, n_out=256, log_sigma_sq=0.0, power=1.0, seed=91, far=False)
    @example(order=3, dim=11, n_out=64, log_sigma_sq=1.0, power=2.0, seed=92, far=True)
    # orders up to 4 take the Gram route at every dim up to 11; order 5 at
    # dim 10 has 382 sets, whose pairs cost more than one output's transform
    @example(order=5, dim=10, n_out=6, log_sigma_sq=-1.0, power=1.0, seed=93, far=False)
    # y far from every codeword: the direct residuals round by ~eps times the
    # top candidate's 1.5e4 nats, more than the Gram route's scores do, so
    # the Gram mean (1.8e-13 off) is kept, not the per-output one (1.5e-12)
    @example(order=1, dim=4, n_out=130, log_sigma_sq=-1.0, power=2.0, seed=7901, far=True)
    def test_matches_brute_force_on_random_draws(
        self, order, dim, n_out, log_sigma_sq, power, seed, far
    ):
        sigma_sq = 10.0**log_sigma_sq
        fld = sample_field(FieldSpec(n_out=n_out, dim=dim, order=order, power=power, seed=seed))
        rng = np.random.default_rng(seed)
        if far:
            y = rng.normal(0.0, 3.0 * math.sqrt(power + sigma_sq), size=n_out)
        else:
            u = rng.integers(0, 2, size=dim) * 2.0 - 1.0
            y = evaluate(fld, u) + rng.normal(0.0, math.sqrt(sigma_sq), size=n_out)
        with mock.patch.object(
            codec_module, "_enumerate_outputs", wraps=field._enumerate_outputs
        ) as direct:
            r = mmse_estimate(fld, y, sigma_sq)
        pairs = field._gram_pairs(dim, order)
        sets = len(field._support(dim, order)[2])
        rows = min(n_out, max(1, field._BLOCK_FLOATS // sets))
        if pairs is None:
            event("per-output route")
        else:
            event("Gram then per-output route" if direct.called else "Gram route")
            if sets * rows * sets >= field._PRODUCT_MADDS:
                event("Gram products split into row slices")
        assert np.max(np.abs(r - brute_force_mean(fld, y, sigma_sq))) <= 1e-12

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



#: Decodes seeded fields at dims 10 to 14, and order-5 fields at dims 13 and
#: 14, which take the per-output route through the unsplit ``_walsh``; builds
#: codeword tables at dims 10 and 14, estimates the leakage at dim 14, whose
#: scoring blocks are single samples, and runs a 40-trial dim-14
#: ``simulate``, then prints one digest of every result and of the data rows.
_THREAD_DIGEST = """
import contextlib
import hashlib
import io
import numpy as np
from gfwiretap import cli, field, simulate
from gfwiretap.codec import CodecConfig, build_binning, mmse_estimate
from gfwiretap.field import FieldSpec, evaluate, sample_field

digest = hashlib.sha256()
for dim, order in ((10, 3), (12, 3), (13, 3), (14, 3), (13, 5), (14, 5)):
    assert (field._gram_pairs(dim, order) is None) == (order == 5)
    for seed in range(3):
        fld = sample_field(FieldSpec(n_out=16, dim=dim, order=order, power=1.0, seed=seed))
        rng = np.random.default_rng(seed)
        s = rng.choice([-1.0, 1.0], dim)
        for sigma_sq in (0.01, 1.0):
            y = evaluate(fld, s) + np.sqrt(sigma_sq) * rng.standard_normal(16)
            digest.update(mmse_estimate(fld, y, sigma_sq).tobytes())
fld = sample_field(FieldSpec(n_out=16, dim=10, order=3, power=1.0, seed=7))
digest.update(simulate._codeword_table(fld, build_binning(6, 4, 0)).tobytes())
cfg = CodecConfig(n=16, k=7, k_tilde=7, sigma_b_sq=0.1, sigma_e_sq=1.0)
assert simulate._score_rows(cfg.n, cfg.k_tot) == 1
fld, plan = simulate._trial_field(cfg, 0), simulate._trial_plan(cfg, 0)
digest.update(simulate._codeword_table(fld, plan).tobytes())
digest.update(repr(simulate.estimate_leakage(cfg, fld, plan, 40)).encode())
out = io.StringIO()
line = "simulate --n 16 --k 10 --k-tilde 4 --sigma-b-sq 1 --sigma-e-sq 1 --trials 40"
with contextlib.redirect_stdout(out):
    assert cli.main(line.split()) == 0
rows = [row for row in out.getvalue().splitlines() if not row.startswith("#")]
assert len(rows) == 41
digest.update("\\n".join(rows).encode())
print(digest.hexdigest())
"""


def test_results_do_not_depend_on_blas_threads():
    # the Gram products run through BLAS, whose sums may split across
    # threads; field._product keeps each product on one thread, so one and
    # two threads give the same bits at every dim (before it they differed
    # from dim 13 on)
    src = str(pathlib.Path(gfwiretap.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = {
        threads: subprocess.run(
            [sys.executable, "-c", _THREAD_DIGEST],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    }
    assert digests["1"] and digests["1"] == digests["2"]
