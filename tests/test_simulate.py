import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from scipy.special import logsumexp

from gfwiretap import cli, codec, field, simulate
from gfwiretap.channel import bin_size
from gfwiretap.codec import CodecConfig, build_binning, random_key
from gfwiretap.errors import BudgetError, NumericalError
from gfwiretap.field import FieldSpec, sample_field
from gfwiretap.simulate import (
    _codeword_table,
    _leakage_terms,
    _trial_field,
    _trial_plan,
    estimate_leakage,
    run_experiment,
    run_trial,
    transmit,
)
from oracles import codeword_table_reference, leakage_terms_reference, sample_leakage_terms


def small_cfg(**kw):
    base = dict(
        n=16, k=4, k_tilde=2, order=3, sigma_b_sq=0.1, sigma_e_sq=1.0,
        field_seed=10, perm_seed=11, key_seed=12, noise_seed=13,
    )
    base.update(kw)
    return CodecConfig(**base)


def score_samples(codes, patterns, ys, k, k_tilde, sigma_sq):
    """``_leakage_terms`` of observations ``ys`` of ``patterns``, whose rows
    are built as ``estimate_leakage`` builds them."""
    obs, w = simulate._observations(ys, codes[:-2].T[patterns], sigma_sq)
    return _leakage_terms(codes, patterns, obs, w, k, k_tilde)


def scoring_peak(n, k, k_tilde, n_samples):
    """Traced peak bytes of scoring ``n_samples`` noisy samples against a
    score matrix of ``2**(k + k_tilde)`` random codewords.  No binning plan
    has ``k_tilde > k + 1``, so the matrix is drawn directly."""
    codewords = 1 << (k + k_tilde)
    rng = np.random.default_rng(32)
    codes = np.ones((n + 2, codewords))
    codes[:n] = rng.normal(size=(codewords, n)).T
    codes[n] = np.sum(codes[:n] ** 2, axis=0)
    patterns = rng.integers(0, codewords, n_samples)
    ys = codes[:n].T[patterns] + rng.normal(size=(n_samples, n))
    tracemalloc.start()
    try:
        score_samples(codes, patterns, ys, k, k_tilde, 1.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTransmit:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(0)
        x = np.arange(5.0)
        assert np.array_equal(transmit(x, 0.0, rng), x)

    def test_noise_variance(self):
        rng = np.random.default_rng(1)
        x = np.zeros(1_000_000)
        y = transmit(x, 0.37, rng)
        var = y.var(ddof=1)
        se = 0.37 * math.sqrt(2.0 / (y.size - 1))
        assert abs(var - 0.37) <= 3.0 * se

    def test_deterministic_per_seed(self):
        x = np.ones(8)
        a = transmit(x, 1.0, np.random.default_rng(42))
        b = transmit(x, 1.0, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_negative_variance(self):
        with pytest.raises(ValueError):
            transmit(np.ones(3), -1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma_sq", [1e-6, 0.37, 1.0, 100.0])
    @pytest.mark.parametrize("shape", [(1000,), (40, 25)], ids=["1d", "2d"])
    def test_values_are_those_of_a_normal_draw(self, shape, sigma_sq):
        # the noise is drawn in place from standard_normal; numpy's normal
        # returns loc + scale * z of the same stream
        x = np.random.default_rng(5).normal(size=shape)
        kept = x.copy()
        noise = np.random.default_rng(6).normal(0.0, math.sqrt(sigma_sq), size=x.shape)
        assert np.array_equal(transmit(x, sigma_sq, np.random.default_rng(6)), x + noise)
        assert np.array_equal(x, kept)


class TestRunTrial:
    def test_noiseless_recovers(self):
        cfg = small_cfg(sigma_b_sq=1e-12)
        rec = run_trial(cfg, _trial_field(cfg, 0), _trial_plan(cfg, 0), 0)
        assert rec.flip_fraction == 0.0
        assert rec.decoded == rec.message
        assert rec.bit_errors == 0

    def test_sign_overlap_identity_and_bound(self):
        cfg = small_cfg(sigma_b_sq=0.4)
        for trial_id in range(30):
            rec = run_trial(cfg, _trial_field(cfg, trial_id), _trial_plan(cfg, trial_id), trial_id)
            assert rec.overlap_sign == 1.0 - 2.0 * rec.flip_fraction
            assert rec.bound_ok
            assert rec.flip_fraction <= 1.0 - rec.overlap
            # overlap_sign is the normalized inner product with the hard signs
            assert abs(rec.overlap_sign) <= 1.0
            assert rec.overlap <= rec.overlap_sign + 1e-12


class TestRunExperiment:
    def test_single_trial_reduces_to_run_trial(self):
        cfg = small_cfg()
        report = run_experiment(cfg, 1)
        direct = run_trial(cfg, _trial_field(cfg, 0), _trial_plan(cfg, 0), 0)
        assert report.trials == (direct,)
        assert report.n_trials == 1

    def test_averaged_bound(self):
        cfg = small_cfg(sigma_b_sq=0.5)
        report = run_experiment(cfg, 40)
        assert report.mean_flip_fraction <= 1.0 - report.mean_overlap
        assert report.message_error_rate <= sum(
            t.flip_fraction > 0 for t in report.trials
        ) / len(report.trials)

    def test_deterministic(self):
        cfg = small_cfg(sigma_b_sq=0.3)
        a = run_experiment(cfg, 12)
        b = run_experiment(cfg, 12)
        assert a == b  # wall_clock_s excluded from comparison

    def test_threads_other_than_one_refused_before_sampling(self, monkeypatch):
        def no_fields(*args, **kwargs):
            raise AssertionError("a field was sampled before threads was checked")

        monkeypatch.setattr(simulate, "sample_field", no_fields)
        with pytest.raises(ValueError, match="threads must be 1"):
            run_experiment(small_cfg(), 3, threads=2)

    def test_freeze_flags_deterministic(self):
        cfg = small_cfg(sigma_b_sq=0.3)
        a = run_experiment(cfg, 6, freeze_field=True, freeze_plan=True)
        b = run_experiment(cfg, 6, freeze_field=True, freeze_plan=True)
        assert a == b
        # trial 0 uses the trial-0 realization either way
        unfrozen = run_experiment(cfg, 1)
        assert a.trials[0] == unfrozen.trials[0]

    def test_flip_fraction_grows_with_message_load(self):
        # paired seeds, fixed n: adding message symbols raises the rate and
        # cannot improve the flip fraction trend
        means = []
        for k in (2, 4, 6, 8):
            cfg = small_cfg(k=k, sigma_b_sq=0.35)
            means.append(run_experiment(cfg, 60).mean_flip_fraction)
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_mean_overlap_tracks_asymptotic_prediction(self):
        # matched desk-scale comparison: rate (k + k_tilde) / n, recorded
        # with error bars; finite-size rounding keeps this a soft check
        from gfwiretap.replica import make_config, solve_overlap

        cfg = small_cfg(sigma_b_sq=0.1)
        rep = run_experiment(cfg, 200)
        predicted = solve_overlap(
            make_config(rate=cfg.k_tot / cfg.n, sigma_sq=cfg.sigma_b_sq, order=cfg.order)
        ).m_star
        print(
            f"mean overlap {rep.mean_overlap:.4f} +- {rep.mean_overlap_se:.4f} "
            f"vs asymptotic overlap {predicted:.4f}"
        )
        assert abs(rep.mean_overlap - predicted) <= 0.1

    def test_budget_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("field sampled before the budget check")

        monkeypatch.setattr(simulate, "sample_field", no_draw)
        for k, k_tilde in ((15, 6), (70, 2)):
            cfg = small_cfg(n=8, k=k, k_tilde=k_tilde)
            with pytest.raises(BudgetError, match="budget is 2\\*\\*20"):
                run_experiment(cfg, 1)
            with pytest.raises(BudgetError):
                run_experiment(cfg, 1, freeze_field=True, freeze_plan=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_experiment(small_cfg(), 0)
        with pytest.raises(ValueError):
            run_experiment(small_cfg(), 1, threads=0)


class TestLeakage:
    def test_codeword_table_matches_encode(self):
        from gfwiretap.codec import encode, message_to_bipolar

        cfg = small_cfg(n=6, k=2, k_tilde=2)
        fld = _trial_field(cfg, 0)
        plan = _trial_plan(cfg, 0)
        table = _codeword_table(fld, plan)[: cfg.n].T
        for m in range(4):
            for key_pattern in range(4):
                key = message_to_bipolar(key_pattern, 2)
                frame = encode(cfg, fld, plan, m, key)
                pattern = (m << 2) | key_pattern
                assert np.max(np.abs(table[pattern] - frame.x)) <= 1e-9

    def test_codeword_table_matches_block_reference(self):
        # non-identity permutations, one of them with a single key symbol
        for k, k_tilde, seed in ((2, 2, 0), (5, 1, 1), (6, 4, 2), (9, 3, 3)):
            cfg = small_cfg(n=5, k=k, k_tilde=k_tilde)
            fld = _trial_field(cfg, seed)
            plan = _trial_plan(cfg, seed)
            assert not np.array_equal(plan.permutation, np.arange(cfg.k_tot))
            reference = codeword_table_reference(fld, plan)
            codes = _codeword_table(fld, plan)
            assert codes.shape == (cfg.n + 2, 1 << cfg.k_tot) and codes.flags.c_contiguous
            assert np.max(np.abs(codes[: cfg.n].T - reference)) <= 1e-12 * max(
                1.0, np.max(np.abs(reference))
            )
            norms = np.sum(reference**2, axis=1)
            assert np.max(np.abs(codes[cfg.n] - norms)) <= 1e-12 * max(1.0, np.max(norms))
            assert np.all(codes[cfg.n + 1] == 1.0)

    def test_chain_identity_is_exact_on_shared_samples(self):
        cfg = small_cfg(n=8, k=2, k_tilde=2)
        est = estimate_leakage(cfg, _trial_field(cfg, 0), _trial_plan(cfg, 0), 400)
        assert est.chain_residual <= 1e-12

    def test_huge_eavesdropper_noise_kills_leakage(self):
        cfg = small_cfg(n=8, k=2, k_tilde=2, sigma_e_sq=1e6)
        est = estimate_leakage(cfg, _trial_field(cfg, 0), _trial_plan(cfg, 0), 600)
        assert abs(est.leakage) <= 3.0 * est.leakage_se

    def test_tiny_eavesdropper_noise_is_refused(self):
        # the scorer's expanded square loses ~eps |t|^2 / (2 sigma_e_sq) nats
        # per sample: at 1e-20 that overflows the exp, at 1e-16 the message
        # is still read exactly
        cfg = small_cfg(n=8, k=2, k_tilde=2, sigma_e_sq=1e-16)
        est = estimate_leakage(cfg, _trial_field(cfg, 0), _trial_plan(cfg, 0), 200)
        assert est.leakage == pytest.approx(cfg.k * math.log(2.0) / cfg.n, rel=1e-12)
        cfg = small_cfg(n=8, k=2, k_tilde=2, sigma_e_sq=1e-20)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="sigma_e_sq=1e-20"):
                estimate_leakage(cfg, _trial_field(cfg, 0), _trial_plan(cfg, 0), 200)

    def test_nonnegative_and_entropy_bounded(self):
        cfg = small_cfg(n=8, k=3, k_tilde=2, sigma_e_sq=0.5)
        est = estimate_leakage(cfg, _trial_field(cfg, 0), _trial_plan(cfg, 0), 800)
        assert est.leakage >= -3.0 * est.leakage_se
        assert est.mi_all_symbols >= -3.0 * est.mi_all_symbols_se
        assert est.mi_key_given_msg >= -3.0 * est.mi_key_given_msg_se
        bound = (cfg.k_tot / cfg.n) * math.log(2.0)
        assert est.mi_all_symbols <= bound + 3.0 * est.mi_all_symbols_se

    def test_genie_term_matches_direct_conditional_estimator(self):
        # I(key; y | message fixed) computed by the general estimator must
        # match a from-scratch conditional computation on the same draws
        cfg = small_cfg(n=6, k=1, k_tilde=1, sigma_e_sq=1.0)
        fld = _trial_field(cfg, 0)
        plan = _trial_plan(cfg, 0)
        codes = _codeword_table(fld, plan)
        table = codes[: cfg.n].T

        rng = np.random.default_rng(123)
        n_samples = 500
        patterns = np.empty(n_samples, dtype=np.int64)
        ys = np.empty((n_samples, cfg.n))
        direct = np.empty(n_samples)
        for i in range(n_samples):
            msg = int(rng.integers(0, 2))
            key = int(rng.integers(0, 2))
            patterns[i] = (msg << 1) | key
            ys[i] = table[patterns[i]] + rng.normal(0.0, 1.0, size=cfg.n)
            # conditional-only estimator: enumerate the key inside the fixed
            # message's row
            diff = table[2 * msg : 2 * msg + 2] - ys[i]
            row = -0.5 * np.einsum("ij,ij->i", diff, diff)
            direct[i] = (row[key] - (float(logsumexp(row)) - math.log(2.0))) / cfg.n
        _, _, genie = score_samples(codes, patterns, ys, 1, 1, 1.0)
        # the block scorer expands |t - y|^2 into a matrix product, so it
        # agrees with the direct differences to rounding, not bit for bit
        assert np.max(np.abs(genie - direct)) <= 1e-12

    def test_matches_per_sample_reference(self):
        # block seams at dim 10: a partial block, exactly one block, one
        # block plus one sample; at dim 16 every block holds a single sample;
        # at n 3000 every sample is farther than _FAR_NATS from its codeword
        per_block = simulate._score_rows(8, 10)
        cases = [
            (small_cfg(n=8, k=6, k_tilde=4), n_samples)
            for n_samples in (2, per_block, per_block + 1)
        ] + [(small_cfg(n=4, k=10, k_tilde=6), 2)] + [
            (small_cfg(n=8, k=6, k_tilde=4, sigma_e_sq=s2), 70)
            for s2 in (1e-2, 1.0, 1e6)
        ] + [
            (small_cfg(n=3000, k=1, k_tilde=1, sigma_e_sq=s2), 40)
            for s2 in (1.0, 1e-2)
        ]
        for cfg, n_samples in cases:
            fld = _trial_field(cfg, 0)
            plan = _trial_plan(cfg, 0)
            est = estimate_leakage(cfg, fld, plan, n_samples)
            leak, full, genie = leakage_terms_reference(
                cfg, _codeword_table(fld, plan)[: cfg.n].T, n_samples
            )
            expected = {}
            for name, terms in (
                ("leakage", leak),
                ("mi_all_symbols", full),
                ("mi_key_given_msg", genie),
            ):
                expected[name] = terms.mean()
                expected[name + "_se"] = terms.std(ddof=1) / math.sqrt(n_samples)
            expected["chain_residual"] = abs(
                expected["leakage"]
                - (expected["mi_all_symbols"] - expected["mi_key_given_msg"])
            )
            assert est.n_samples == n_samples
            for name, value in expected.items():
                assert abs(getattr(est, name) - value) <= 1e-12, (cfg, n_samples, name)

    @pytest.mark.parametrize(
        "n,k,k_tilde,n_samples,per_block",
        # at dim 12 and n 64 the own-message buffer holds 2**k = 64 one-row
        # blocks: 213 samples fill it three times and end 21 into a fourth
        [(8, 6, 4, 103, 51), (16, 7, 8, 5, 1), (64, 6, 6, 213, 1)],
        ids=["trailing-one-row-block", "one-row-blocks", "own-message-flushes"],
    )
    def test_single_row_blocks_match_per_sample_reference(
        self, n, k, k_tilde, n_samples, per_block
    ):
        # a block of one sample is a matrix-vector product, which rounds
        # unlike the matrix product of the larger blocks
        assert simulate._score_rows(n, k + k_tilde) == per_block
        cfg = small_cfg(n=n, k=k, k_tilde=k_tilde)
        codes = _codeword_table(_trial_field(cfg, 0), _trial_plan(cfg, 0))
        table = codes[:n].T
        rng = np.random.default_rng(34)
        patterns = rng.integers(0, 1 << cfg.k_tot, n_samples)
        ys = table[patterns] + rng.normal(size=(n_samples, n))
        terms = np.array(score_samples(codes, patterns, ys, k, k_tilde, 1.0))
        for i in range(n_samples):
            expected = sample_leakage_terms(table, patterns[i], ys[i], k, k_tilde, 1.0)
            assert np.max(np.abs(terms[:, i] - expected)) <= 1e-12, i

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        order=st.integers(min_value=1, max_value=3),
        dim=st.integers(min_value=2, max_value=11),
        key=st.integers(min_value=0, max_value=5),
        n=st.integers(min_value=1, max_value=64),
        log_sigma_sq=st.floats(min_value=-3.0, max_value=2.0),
        n_samples=st.integers(min_value=2, max_value=89),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # 51-sample blocks at dim 10 and n 8: exactly one, and one plus one sample
    @example(order=3, dim=10, key=3, n=8, log_sigma_sq=0.0, n_samples=51, seed=1)
    @example(order=3, dim=10, key=3, n=8, log_sigma_sq=0.0, n_samples=52, seed=2)
    # 3-sample blocks at dim 11 and n 64 with k 5: the own-message buffer
    # holds 96 samples, so 200 flush at 96, 192 and the end
    @example(order=3, dim=11, key=4, n=64, log_sigma_sq=0.0, n_samples=200, seed=3)
    def test_table_and_terms_match_references_on_random_draws(
        self, order, dim, key, n, log_sigma_sq, n_samples, seed
    ):
        # ``key`` picks one of the key lengths whose binning plan exists
        key_lengths = [kt for kt in range(1, dim) if (kt - 1) * bin_size(dim - kt, kt) < dim]
        k_tilde = key_lengths[key % len(key_lengths)]
        k = dim - k_tilde
        sigma_sq = 10.0**log_sigma_sq
        fld = sample_field(FieldSpec(n_out=n, dim=dim, order=order, power=1.0, seed=seed))
        plan = build_binning(k, k_tilde, seed)
        codes = _codeword_table(fld, plan)
        table = codeword_table_reference(fld, plan)
        assert np.max(np.abs(codes[:n].T - table)) <= 1e-12 * max(1.0, np.max(np.abs(table)))

        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 1 << dim, n_samples)
        ys = table[patterns] + rng.normal(0.0, math.sqrt(sigma_sq), size=(n_samples, n))
        per_block = simulate._score_rows(n, dim)
        if n_samples % per_block == 1:
            event("one-row block")
        event("partial last block" if n_samples % per_block else "whole blocks")
        if n_samples > per_block << k:
            event("several own-message flushes")
        terms = np.array(score_samples(codes, patterns, ys, k, k_tilde, sigma_sq))
        for i in range(n_samples):
            expected = sample_leakage_terms(table, patterns[i], ys[i], k, k_tilde, sigma_sq)
            assert np.max(np.abs(terms[:, i] - expected)) <= 1e-12, i

    @pytest.mark.parametrize(
        "n,k,k_tilde,prefix,n_samples",
        [(64, 6, 6, 128, 213), (16, 6, 4, 1792, 2000)],
        ids=["one-row-blocks", "leakage-scan-blocks"],
    )
    def test_flush_aligned_prefix_scores_as_in_a_longer_run(
        self, n, k, k_tilde, prefix, n_samples
    ):
        # the prefix ends where the own-message buffer is flushed, so alone
        # it is scored in the same blocks and flushes as in the longer run
        assert prefix % (simulate._score_rows(n, k + k_tilde) << k) == 0
        cfg = small_cfg(n=n, k=k, k_tilde=k_tilde)
        codes = _codeword_table(_trial_field(cfg, 0), _trial_plan(cfg, 0))
        rng = np.random.default_rng(36)
        patterns = rng.integers(0, 1 << cfg.k_tot, n_samples)
        ys = codes[:n].T[patterns] + rng.normal(size=(n_samples, n))
        whole = np.array(score_samples(codes, patterns, ys, k, k_tilde, 1.0))
        alone = np.array(score_samples(codes, patterns[:prefix], ys[:prefix], k, k_tilde, 1.0))
        assert np.array_equal(alone, whole[:, :prefix])

    def test_far_and_near_samples_share_blocks(self):
        # samples past _FAR_NATS from their codewords, in blocks of near
        # ones: three with huge noise, and three observed next to the
        # codeword farthest from their own, whose shifted entry there would
        # overflow exp unless the sample shifts by its row maximum
        n, k, k_tilde, sigma_sq = 8, 6, 4, 1e-2
        cfg = small_cfg(n=n, k=k, k_tilde=k_tilde, sigma_e_sq=sigma_sq)
        codes = _codeword_table(_trial_field(cfg, 0), _trial_plan(cfg, 0))
        table = codes[:n].T
        rng = np.random.default_rng(31)
        n_samples = 70
        patterns = rng.integers(0, 1 << (k + k_tilde), n_samples)
        noise = rng.normal(0.0, math.sqrt(sigma_sq), size=(n_samples, n))
        huge, swapped = [0, 5, 31], [32, 33, 69]
        noise[huge] *= np.sqrt(2000.0 * sigma_sq / np.sum(noise[huge] ** 2, axis=1))[:, None]
        ys = table[patterns] + noise
        for i in swapped:
            gap = np.sum((table - table[patterns[i]]) ** 2, axis=1)
            ys[i] = table[np.argmax(gap)] + noise[i]
            assert gap.max() / (2.0 * sigma_sq) > 750.0
        w = np.sum((ys - table[patterns]) ** 2, axis=1) / (2.0 * sigma_sq)
        assert np.flatnonzero(w > simulate._FAR_NATS).tolist() == huge + swapped
        assert simulate._score_rows(n, k + k_tilde) == 51

        terms = np.array(score_samples(codes, patterns, ys, k, k_tilde, sigma_sq))
        assert np.all(np.isfinite(terms))
        for i in range(n_samples):
            expected = sample_leakage_terms(table, patterns[i], ys[i], k, k_tilde, sigma_sq)
            assert np.max(np.abs(terms[:, i] - expected)) <= 1e-12, i

    def test_far_samples_leave_their_block_bit_identical(self):
        # the shift is chosen per sample: a near sample's terms do not move
        # when some samples of its block are pushed past _FAR_NATS
        cfg = small_cfg(n=8, k=6, k_tilde=4)
        codes = _codeword_table(_trial_field(cfg, 0), _trial_plan(cfg, 0))
        table = codes[: cfg.n].T
        rng = np.random.default_rng(33)
        patterns = rng.integers(0, 1 << cfg.k_tot, 70)
        noise = rng.normal(size=(70, cfg.n))
        near = np.array(score_samples(codes, patterns, table[patterns] + noise, 6, 4, 1.0))
        huge = [0, 5, 31, 32, 69]
        noise[huge] *= 20.0
        assert np.all(np.sum(noise[huge] ** 2, axis=1) / 2.0 > simulate._FAR_NATS)
        mixed = np.array(score_samples(codes, patterns, table[patterns] + noise, 6, 4, 1.0))
        kept = np.ones(70, dtype=bool)
        kept[huge] = False
        assert np.array_equal(mixed[:, kept], near[:, kept])

    def test_scoring_memory_is_blocks_not_samples_by_codewords(self):
        # at dim 15 and n 16 a block is one sample's row of 2**15 floats; 64
        # samples by 2**14 own-message terms would be 2**20 floats, and 64 by
        # 2**15 log-likelihoods 2**21
        n, k, k_tilde, n_samples = 16, 1, 14, 64
        codewords = 1 << (k + k_tilde)
        peak = scoring_peak(n, k, k_tilde, n_samples)
        assert simulate._score_rows(n, k + k_tilde) == 1
        # the block and the own-message buffer, and the per-sample rows and
        # terms: nothing per codeword beside the caller's score matrix
        bound = 2 * codewords + n_samples * (n + 8) * 4
        assert peak <= 8 * bound, (peak, 8 * bound)
        assert bound < n_samples << k_tilde

    def test_own_message_buffer_is_one_block_not_samples_by_slices(self):
        # at dim 15 and n 16 a block is one sample, and the own-message
        # buffer holds 2**k = 128 samples' slices of 2**8: one block's
        # floats, where 600 samples' slices would be 600 * 2**8
        n, k, k_tilde, n_samples = 16, 7, 8, 600
        codewords = 1 << (k + k_tilde)
        peak = scoring_peak(n, k, k_tilde, n_samples)
        assert simulate._score_rows(n, k + k_tilde) == 1
        bound = 2 * codewords + n_samples * (n + 8) * 4
        assert peak <= 8 * bound, (peak, 8 * bound)
        assert bound < n_samples << k_tilde

    def test_sample_budget_bounds_measured_memory(self, monkeypatch):
        # with a 16-codeword table the peak is the sample arrays; the budget
        # counted for them bounds it and is not far above it.  The budget set
        # here admits the table's count: its score matrix and four
        # enumeration blocks of n outputs
        cfg = small_cfg(n=8, k=2, k_tilde=2)
        fld, plan = _trial_field(cfg, 0), _trial_plan(cfg, 0)
        n_samples = 20_000
        monkeypatch.setattr(simulate, "_TABLE_BUDGET", 16 * (cfg.n + 2 + 4 * cfg.n))
        with pytest.raises(BudgetError, match="leakage samples") as refused:
            estimate_leakage(cfg, fld, plan, n_samples)
        budget = int(re.search(r"would hold (\d+) floats", str(refused.value)).group(1))
        monkeypatch.undo()
        tracemalloc.start()
        try:
            estimate_leakage(cfg, fld, plan, n_samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.6 * 8 * budget <= peak <= 8 * budget, (peak, 8 * budget)

    def test_table_budget_bounds_measured_memory(self, monkeypatch):
        # with 4096 codewords and 2 samples the peak is the score matrix
        # while the enumeration's blocks fill it; the floats counted for the
        # table and the samples bound it, beside the call's interpreter
        # objects (generators, array headers: ~1 KiB)
        cfg = small_cfg(n=64, k=6, k_tilde=6)
        fld, plan = _trial_field(cfg, 0), _trial_plan(cfg, 0)
        monkeypatch.setattr(simulate, "_TABLE_BUDGET", 0)
        with pytest.raises(BudgetError, match="codeword table") as refused:
            estimate_leakage(cfg, fld, plan, 2)
        table = int(re.search(r"would hold (\d+) floats", str(refused.value)).group(1))
        monkeypatch.undo()
        estimate_leakage(cfg, fld, plan, 2)
        tracemalloc.start()
        try:
            estimate_leakage(cfg, fld, plan, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        samples = 2 * (3 * cfg.n + 18)
        assert 8 * table <= peak <= 8 * (table + samples) + 4096, (peak, 8 * table)

    def test_budget_errors(self):
        cfg = small_cfg(n=8, k=20, k_tilde=5)
        with pytest.raises(BudgetError):
            estimate_leakage(cfg, _trial_field(cfg, 0), _trial_plan(cfg, 0), 10)

    def test_default_budget_refuses_dim_21_before_enumerating(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumeration started")

        # codec and simulate hold their own bindings of the kernel
        for module in (field, codec, simulate):
            monkeypatch.setattr(module, "_enumerate_outputs", no_enumeration)
        cfg = small_cfg(n=4, k=15, k_tilde=6)
        assert cfg.k_tot == codec.DEFAULT_ENUM_BUDGET + 1
        fld = _trial_field(cfg, 0)
        with pytest.raises(BudgetError):
            estimate_leakage(cfg, fld, _trial_plan(cfg, 0), 10)
        with pytest.raises(BudgetError):
            codec.mmse_estimate(fld, np.zeros(cfg.n), 1.0)

    def test_sample_count_validation(self):
        cfg = small_cfg(n=8, k=2, k_tilde=2)
        with pytest.raises(ValueError):
            estimate_leakage(cfg, _trial_field(cfg, 0), _trial_plan(cfg, 0), 1)

    def test_average_over_realizations(self, capsys):
        # the leakage subcommand averages the leakage over resampled
        # (field, plan) realizations; run it at small_cfg
        cfg = small_cfg(n=6, k=2, k_tilde=2, sigma_e_sq=1.0)
        argv = ["leakage", "--samples", "200", f"--lambda={cfg.order}"] + [
            f"--{name.replace('_', '-')}={getattr(cfg, name)}"
            for name in (
                "n", "k", "k_tilde", "power", "sigma_b_sq", "sigma_e_sq",
                "field_seed", "perm_seed", "key_seed", "noise_seed",
            )
        ]
        assert cli.main(argv + ["--realizations", "4"]) == 0
        lines = [
            l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")
        ]
        assert lines[0] == "quantity,estimate,standard_error"
        rows = {
            r.split(",")[0]: tuple(map(float, r.split(",")[1:])) for r in lines[1:]
        }
        mean, se = rows["leakage_avg_over_realizations"]
        values = [
            estimate_leakage(cfg, _trial_field(cfg, r), _trial_plan(cfg, r), 200).leakage
            for r in range(4)
        ]
        assert mean == pytest.approx(np.mean(values), rel=1e-12, abs=1e-15)
        assert se == pytest.approx(np.std(values, ddof=1) / 2.0, rel=1e-12)
        fixed = estimate_leakage(cfg, _trial_field(cfg, 0), _trial_plan(cfg, 0), 200)
        # the realization average is a different number from the fixed-pair
        # estimate but lives on the same scale
        assert se > 0.0
        assert abs(mean - fixed.leakage) <= 5.0 * (se + fixed.leakage_se)
        # one realization has no between-realization spread, so no average row
        assert cli.main(argv + ["--realizations", "1"]) == 0
        assert "leakage_avg_over_realizations" not in capsys.readouterr().out


class TestReportWriter:
    def test_report_format_and_determinism(self, capsys):
        # the simulate subcommand writes the report; run it at small_cfg
        cfg = small_cfg(sigma_b_sq=0.3)
        argv = ["simulate", "--trials", "5", f"--lambda={cfg.order}"] + [
            f"--{name.replace('_', '-')}={getattr(cfg, name)}"
            for name in (
                "n", "k", "k_tilde", "power", "sigma_b_sq", "sigma_e_sq",
                "field_seed", "perm_seed", "key_seed", "noise_seed",
            )
        ]
        bufs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            bufs.append(capsys.readouterr().out)
        stable = [
            "\n".join(l for l in b.splitlines() if not l.startswith("# generated:"))
            for b in bufs
        ]
        assert stable[0] == stable[1]
        text = bufs[0]
        assert text.startswith("# gfwiretap simulation report v1\n")
        assert "# param n = 16" in text
        assert "trial_id,message,decoded,bit_errors,flip_fraction,overlap,overlap_sign,bound_ok" in text
        assert "# summary message_error_rate" in text
        assert len([l for l in text.splitlines() if l and not l.startswith("#")]) == 6
