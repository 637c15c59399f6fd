"""Acceptance suite.

One test per criterion, each ending with a PASS line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  Tolerances are fixed
here, not configurable.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import exact_posterior_mean, leakage_by_quadrature
from gfwiretap.channel import LOG2, awgn_capacity, critical_rate_heuristic
from gfwiretap.codec import CodecConfig
from gfwiretap.field import FieldSpec, covariance_probe, sample_field
from gfwiretap.codec import mmse_estimate
from gfwiretap.replica import GRID_STEP, locate_critical_rate, make_config, solve_overlap
from gfwiretap.simulate import (
    _codeword_table,
    _trial_field,
    _trial_plan,
    estimate_leakage,
    run_experiment,
)

C0 = 1.19894763639919
RSTAR = 1.72971580931865

# mixed-parameter batches for the per-trial identity criteria (8)
MIXED_BATCHES = [
    dict(n=16, k=4, k_tilde=2, order=3, sigma_b_sq=0.05, sigma_e_sq=1.0),
    dict(n=16, k=4, k_tilde=2, order=3, sigma_b_sq=0.4, sigma_e_sq=1.0),
    dict(n=12, k=3, k_tilde=3, order=4, sigma_b_sq=0.2, sigma_e_sq=0.5),
    dict(n=10, k=2, k_tilde=2, order=1, sigma_b_sq=0.3, sigma_e_sq=1.0,
         allow_low_order=True),
]


def report(criterion, text):
    print(f"[acceptance] criterion {criterion}: PASS - {text}")


def test_criterion_01_linear_curve_reproduction():
    make_config(rate=1.0, order=1)  # warm the cached quadrature rule
    targets = {
        0.6: 0.415848632511528,
        2.0: 1.07327015988218,
        6.0: 1.16293490921312,
    }
    started = time.perf_counter()
    solutions = {r: solve_overlap(make_config(rate=r, order=1)) for r in targets}
    elapsed = time.perf_counter() - started
    for rate, expected in targets.items():
        assert solutions[rate].info_rate == pytest.approx(expected, abs=1e-5), rate
    assert elapsed < 1.0
    report(1, f"lambda=1 info rates match at 3 reference rates, {elapsed:.2f}s")


def test_criterion_02_cubic_curve_and_critical_rate():
    cfg = make_config(rate=1.0, order=3)
    started = time.perf_counter()
    low = solve_overlap(cfg)
    high = solve_overlap(replace(cfg, rate=2.02))
    located = locate_critical_rate(cfg, 1.5, 2.0, tol=1e-4)
    elapsed = time.perf_counter() - started
    assert low.info_rate == pytest.approx(0.69314711510415, abs=1e-4)
    assert high.info_rate == pytest.approx(C0, abs=1e-6)
    assert high.m_star == 0.0
    assert abs(located - RSTAR) <= 0.005
    assert critical_rate_heuristic(1.0, 0.1) == pytest.approx(RSTAR, abs=1e-10)
    assert elapsed < 10.0
    report(
        2,
        f"lambda=3 rows match, collapse located at {located:.6f} "
        f"(heuristic {RSTAR:.6f}), {elapsed:.2f}s",
    )


def test_criterion_03_all_or_nothing_regimes():
    cfg = make_config(rate=1.0, order=3)
    started = time.perf_counter()
    below = np.linspace(0.7, RSTAR - 0.05, 15)
    above = np.linspace(RSTAR + 0.05, 3.0, 15)
    for rate in below:
        sol = solve_overlap(replace(cfg, rate=float(rate)))
        assert abs(sol.info_rate - rate * LOG2) <= 1e-4, rate
        assert sol.m_star >= 1.0 - 1e-6, rate
    for rate in above:
        sol = solve_overlap(replace(cfg, rate=float(rate)))
        assert abs(sol.info_rate - awgn_capacity(10.0)) <= 1e-6, rate
        assert sol.m_star <= 1e-6, rate
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, f"entropy-limited below and capacity-limited above, {elapsed:.2f}s")


def test_criterion_04_linear_overlap_never_zero():
    rates = np.arange(0.2, 6.0 + 1e-9, 0.1)
    stars = [solve_overlap(make_config(rate=float(r), order=1)).m_star for r in rates]
    assert all(m > 0.01 for m in stars)
    report(4, f"lambda=1 overlap stays above 0.01 on {len(rates)} rates")


def test_criterion_05_stationarity_of_interior_minimizers():
    checked = 0
    sweeps = [
        (1, list(np.arange(0.2, 6.0 + 1e-9, 0.1)) + [0.6, 2.0, 6.0]),
        (3, list(np.linspace(0.7, RSTAR - 0.05, 15))
            + list(np.linspace(RSTAR + 0.05, 3.0, 15)) + [1.0, 2.02]),
    ]
    for order, rates in sweeps:
        for rate in rates:
            sol = solve_overlap(make_config(rate=float(rate), order=order))
            if GRID_STEP < sol.m_star < 1.0 - GRID_STEP:
                assert sol.fixed_point_residual <= 1e-6, (order, rate)
                checked += 1
    assert checked > 20
    report(5, f"{checked} interior minimizers satisfy the fixed point to 1e-6")


def test_criterion_06_field_covariance_law():
    started = time.perf_counter()
    dim = 8
    spec = FieldSpec(n_out=2, dim=dim, order=3, power=1.0, seed=2026)
    s1 = np.ones(dim)
    overlaps = [-1.0, -0.5, 0.0, 0.5, 1.0]
    probes = []
    for u in overlaps:
        s2 = np.ones(dim)
        s2[: round((1.0 - u) / 2.0 * dim)] = -1.0
        probes.append(s2)
    results = covariance_probe(spec, s1, probes, n_fields=100_000, seed=90210)
    elapsed = time.perf_counter() - started
    for u, (mean_same, se_same, mean_cross, se_cross) in zip(overlaps, results):
        assert abs(mean_same - u**3) <= 3.0 * se_same, u
        assert abs(mean_cross) <= 3.0 * se_cross, u
    assert elapsed < 60.0
    report(6, f"covariance matches u^3 at 5 overlaps over 1e5 fields, {elapsed:.1f}s")


def test_criterion_07_mmse_oracle_equivalence():
    rng = np.random.default_rng(7777)
    worst = 0.0
    for trial in range(50):
        dim = int(rng.integers(1, 5))
        spec = FieldSpec(
            n_out=int(rng.integers(2, 7)),
            dim=dim,
            order=int(rng.integers(1, 4)),
            power=float(rng.uniform(0.5, 2.0)),
            seed=trial,
        )
        fld = sample_field(spec)
        y = rng.normal(size=spec.n_out) * float(rng.uniform(0.5, 2.0))
        sigma_sq = float(rng.uniform(0.05, 3.0))
        gap = np.max(
            np.abs(mmse_estimate(fld, y, sigma_sq) - exact_posterior_mean(fld, y, sigma_sq))
        )
        worst = max(worst, float(gap))
    assert worst <= 1e-12
    report(7, f"50 instances match the 50-digit oracle; worst gap {worst:.2e}")


def test_criterion_08_reliability_identities_per_trial():
    total = 0
    for batch in MIXED_BATCHES:
        cfg = CodecConfig(field_seed=40, perm_seed=41, key_seed=42, noise_seed=43, **batch)
        rep = run_experiment(cfg, 250)
        for t in rep.trials:
            assert t.bound_ok
            assert t.flip_fraction <= 1.0 - t.overlap
            assert t.overlap_sign == 1.0 - 2.0 * t.flip_fraction
        total += rep.n_trials
    assert total == 1000
    report(8, "flip bound and sign identity hold in all 1000 mixed trials")


def test_criterion_09_noiseless_round_trip():
    cfg = CodecConfig(
        n=16, k=4, k_tilde=2, order=3, sigma_b_sq=1e-12, sigma_e_sq=1.0,
        field_seed=50, perm_seed=51, key_seed=52, noise_seed=53,
    )
    rep = run_experiment(cfg, 100)
    assert rep.message_error_rate == 0.0
    assert all(t.flip_fraction == 0.0 for t in rep.trials)
    report(9, "100 noiseless trials decode every message")


def test_criterion_10_leakage_oracle():
    cfg = CodecConfig(
        n=4, k=1, k_tilde=1, order=3, sigma_b_sq=0.1, sigma_e_sq=1.0,
        field_seed=100, perm_seed=101, key_seed=102, noise_seed=103,
    )
    fld = _trial_field(cfg, 0)
    plan = _trial_plan(cfg, 0)
    est = estimate_leakage(cfg, fld, plan, 4000)
    reference = leakage_by_quadrature(
        _codeword_table(fld, plan), cfg.k, cfg.k_tilde, cfg.n, cfg.sigma_e_sq
    )
    assert abs(est.leakage - reference) <= 3.0 * est.leakage_se
    combined_se = math.hypot(est.mi_all_symbols_se, est.mi_key_given_msg_se)
    assert est.chain_residual <= max(combined_se, 1e-12)

    quiet_cfg = replace(cfg, sigma_e_sq=1e6)
    silent = estimate_leakage(quiet_cfg, fld, plan, 1000)
    assert abs(silent.leakage) <= 3.0 * silent.leakage_se
    report(
        10,
        f"estimate {est.leakage:.5f} vs dense integration {reference:.5f} "
        f"within 3 SE; chain residual {est.chain_residual:.1e}",
    )


def test_criterion_11_asymptotic_claims_substituted():
    # vanishing-error and vanishing-leakage statements hold only as n grows;
    # at desk scale they are covered by the regime checks (criteria 3-4) and
    # the identity/bound/oracle checks (criteria 8-10) above
    substitutes = [
        test_criterion_03_all_or_nothing_regimes,
        test_criterion_04_linear_overlap_never_zero,
        test_criterion_08_reliability_identities_per_trial,
        test_criterion_09_noiseless_round_trip,
        test_criterion_10_leakage_oracle,
    ]
    assert all(callable(fn) for fn in substitutes)
    report(11, "asymptotic claims covered by criteria 3-4 and 8-10 as specified")
