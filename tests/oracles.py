"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's own numerical paths:
posterior means are summed term by term in 50-digit arithmetic, and Monte
Carlo reference values were generated once from a fixed seed and frozen.
"""

import itertools
import math

import numpy as np

# 1e7-sample Monte Carlo references (numpy PCG64, seed 20260808) for
# E[log cosh(e + sqrt(e) w)], w ~ N(0,1).
MC_LOGCOSH_E2_MEAN = 1.500192289632
MC_LOGCOSH_E2_SE = 3.650e-04


def exact_posterior_mean(fld, y, sigma_sq):
    """Direct 2**dim-term posterior mean in 50-digit arithmetic."""
    import mpmath as mp

    from gfwiretap.field import evaluate

    mp.mp.dps = 50
    dim = fld.spec.dim
    num = [mp.mpf(0)] * dim
    den = mp.mpf(0)
    for bits in itertools.product((-1.0, 1.0), repeat=dim):
        u = np.array(bits)
        resid = y - evaluate(fld, u)
        logw = -mp.mpf(float(resid @ resid)) / (2 * mp.mpf(sigma_sq))
        w = mp.e**logw
        den += w
        for i, b in enumerate(bits):
            num[i] += b * w
    return np.array([float(v / den) for v in num])


def leakage_by_quadrature(table, k, k_tilde, n, sigma_sq, nodes_per_dim=24):
    """Message leakage by dense tensor-grid integration over the observation.

    ``table`` holds the codeword for every concatenation pattern
    ``(message << k_tilde) | key``.  Integrates the exact log-posterior
    ratio against each mixture component with a probabilists' Gauss-Hermite
    tensor grid; returns nats per channel use.
    """
    from scipy.special import logsumexp

    nodes, weights = np.polynomial.hermite_e.hermegauss(nodes_per_dim)
    weights = weights / weights.sum()
    idx = np.indices((nodes_per_dim,) * n).reshape(n, -1)
    grid = nodes[idx]
    grid_w = np.prod(weights[idx], axis=0)
    sigma = math.sqrt(sigma_sq)

    n_patterns = 1 << (k + k_tilde)
    total = 0.0
    for pattern in range(n_patterns):
        msg = pattern >> k_tilde
        y = table[pattern][:, None] + sigma * grid
        loglike = np.empty((n_patterns, y.shape[1]))
        for other in range(n_patterns):
            d = y - table[other][:, None]
            loglike[other] = -0.5 * np.einsum("ij,ij->j", d, d) / sigma_sq
        cond = logsumexp(
            loglike.reshape(1 << k, 1 << k_tilde, -1)[msg], axis=0
        ) - k_tilde * math.log(2.0)
        marg = logsumexp(loglike, axis=0) - (k + k_tilde) * math.log(2.0)
        total += float(grid_w @ (cond - marg)) / n_patterns
    return total / n


def leakage_terms_reference(cfg, table, n_samples):
    """Per-sample ``(leak, full, genie)`` terms of the leakage estimator.

    The one-sample-at-a-time loop the block scorer replaced: each sample
    draws its message and key as scalars and its noise as one length-``n``
    vector from the estimator's streams, then scores ``table - y`` over
    every codeword with two ``logsumexp`` calls.
    """
    from scipy.special import logsumexp

    from gfwiretap.simulate import _TAG_LEAK_INPUT, _TAG_LEAK_NOISE, _stream

    LOG2 = math.log(2.0)
    k, k_tilde, n = cfg.k, cfg.k_tilde, cfg.n
    dim = k + k_tilde
    sigma = math.sqrt(cfg.sigma_e_sq)
    inv_two_sigma_sq = 0.5 / cfg.sigma_e_sq
    rng_input = _stream(cfg.key_seed, 0, _TAG_LEAK_INPUT)
    rng_noise = _stream(cfg.noise_seed, 0, _TAG_LEAK_NOISE)

    leak = np.empty(n_samples)
    full = np.empty(n_samples)
    genie = np.empty(n_samples)
    for i in range(n_samples):
        msg_pattern = int(rng_input.integers(0, 1 << k))
        key_pattern = int(rng_input.integers(0, 1 << k_tilde))
        pattern = (msg_pattern << k_tilde) | key_pattern
        y = table[pattern] + rng_noise.normal(0.0, sigma, size=n)

        diff = table - y
        log_like = -inv_two_sigma_sq * np.einsum("ij,ij->i", diff, diff)
        by_message = log_like.reshape(1 << k, 1 << k_tilde)

        lp_joint = log_like[pattern]
        lp_given_msg = float(logsumexp(by_message[msg_pattern])) - k_tilde * LOG2
        lp_marginal = float(logsumexp(log_like)) - dim * LOG2

        leak[i] = (lp_given_msg - lp_marginal) / n
        full[i] = (lp_joint - lp_marginal) / n
        genie[i] = (lp_joint - lp_given_msg) / n
    return leak, full, genie


def covariance_probe_reference(spec, s1, s2_list, n_fields, seed):
    """``covariance_probe`` as one 1-D evaluation per probe and field.

    The per-probe loop the block evaluation replaced: every field is drawn
    from the same seed stream, ``s1`` and each probe are evaluated one at a
    time, and the same-output and cross-output products are averaged.
    """
    from gfwiretap.field import FieldSpec, evaluate, sample_field

    seeds = np.random.SeedSequence(int(seed)).generate_state(n_fields, dtype=np.uint64)
    same = np.empty((len(s2_list), n_fields))
    cross = np.empty((len(s2_list), n_fields))
    for i, field_seed in enumerate(seeds):
        field = sample_field(
            FieldSpec(spec.n_out, spec.dim, spec.order, spec.power, int(field_seed))
        )
        v1 = evaluate(field, np.asarray(s1, dtype=float))
        for j, s2 in enumerate(s2_list):
            v2 = evaluate(field, np.asarray(s2, dtype=float))
            same[j, i] = v1[0] * v2[0]
            cross[j, i] = v1[0] * v2[1]
    root_n = math.sqrt(n_fields)
    return [
        (
            float(same[j].mean()),
            float(same[j].std(ddof=1) / root_n),
            float(cross[j].mean()),
            float(cross[j].std(ddof=1) / root_n),
        )
        for j in range(len(s2_list))
    ]


def build_binning_reference(k, k_tilde, perm_seed):
    """``build_binning``'s permutation drawn one bin at a time.

    The loop the single bounded draw replaced: each key position is one
    scalar ``integers(lo, hi)`` call within its bin, and the message
    positions are a permutation of the ``setdiff1d`` of the rest.
    """
    from gfwiretap.channel import bin_size

    width = bin_size(k, k_tilde)
    total = k + k_tilde
    rng = np.random.default_rng(np.random.SeedSequence(int(perm_seed)))
    key_positions = np.empty(k_tilde, dtype=np.int64)
    for ell in range(k_tilde):
        lo, hi = ell * width, min((ell + 1) * width, total)
        key_positions[ell] = rng.integers(lo, hi)
    remaining = np.setdiff1d(np.arange(total), key_positions)
    return np.concatenate([key_positions, rng.permutation(remaining)])
