"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's own numerical paths:
posterior means are summed term by term in 50-digit arithmetic, Monte
Carlo reference values were generated once from a fixed seed and frozen,
and the reference solver evaluates the energy one grid point at a time on
the unpruned quadrature rule.  The one exception is the energy reference,
which recomposes ``replica.energy`` from the package's elementwise terms and
``gauss_expectation``, band by band with the config's own rules and in
blocks of ``2**14`` integrand values with out-of-place integrands, so that
the in-place kernel can be held to it bit for bit.
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


def full_rule(order):
    """Gauss-Hermite rule that keeps every node whose weight is nonzero.

    ``gauss_hermite_rule`` also drops the nodes whose normalised weight is
    at most 1e-30; this rule keeps them (396 nodes at order 400).  It is
    scipy's rule, so it shares no code with the package's own builder.
    """
    from scipy.special import roots_hermitenorm

    from gfwiretap.numerics import QuadratureRule

    nodes, weights = roots_hermitenorm(order)
    keep = weights > 0.0
    nodes, weights = nodes[keep], weights[keep]
    return QuadratureRule(order=order, nodes=nodes, weights=weights / weights.sum())


def log_cosh_reference(x):
    """``log cosh(x)`` as the out-of-place ``(|x| + log1p(exp(-2|x|))) - log 2``."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


#: Integrand values per block in ``node_expectation_reference``.
_BLOCK_FLOATS = 2**14


def node_expectation_reference(g, e, quadrature):
    """``E_w[g(e + sqrt(e) w)]`` composed band by band, as the solver does.

    ``quadrature`` is a rule, taken as one band, or a band table; each SNR
    goes to the first band whose cut point it does not exceed, or to the
    last.  A float ``e`` is one ``(nodes,)`` integrand.  An array goes band
    by band, each band's rows in order in blocks of ``2**14 // nodes`` rows,
    each block one out-of-place ``(rows, nodes)`` integrand array built by
    broadcasting.  ``g`` is called on that array and may not write to it.
    """
    from gfwiretap.numerics import gauss_expectation

    cuts = getattr(quadrature, "cuts", ())
    rules = getattr(quadrature, "rules", (quadrature,))

    def band_of(x):
        return next((i for i, cut in enumerate(cuts) if x <= cut), len(cuts))

    e = np.asarray(e, dtype=float)
    if e.ndim == 0:
        rule = rules[band_of(float(e))]
        return gauss_expectation(lambda w: g(e + np.sqrt(e) * w), rule)
    flat = e.reshape(-1)
    out = np.empty(flat.size)
    for b, rule in enumerate(rules):
        idx = [i for i, x in enumerate(flat) if band_of(x) == b]
        n_rows = _BLOCK_FLOATS // rule.nodes.size
        for lo in range(0, len(idx), n_rows):
            blk = idx[lo : lo + n_rows]
            e_col = flat[blk][:, None]
            sqrt_col = np.sqrt(e_col)
            out[blk] = gauss_expectation(lambda w: g(e_col + sqrt_col * w), rule)
    return out.reshape(e.shape)


def energy_reference(m, cfg):
    """``replica.energy`` composed as ``rate * I_D + C_D + (1 - m) C_D'``.

    ``I_D = e - E_w[log cosh(e + sqrt(e) w)]`` clipped to ``[0, log 2]``,
    with the expectation from ``node_expectation_reference`` and the
    out-of-place ``log_cosh_reference``.
    """
    from gfwiretap.channel import LOG2
    from gfwiretap.replica import cd, cd_prime, effective_snr

    e = effective_snr(m, cfg)
    mi = e - node_expectation_reference(log_cosh_reference, e, cfg.quadrature)
    mi = np.minimum(np.maximum(mi, 0.0), LOG2)
    return cfg.rate * mi + cd(m, cfg) + (1.0 - m) * cd_prime(m, cfg)


def fixed_point_map_reference(m, cfg):
    """``replica.fixed_point_map`` with an out-of-place ``tanh`` per block."""
    from gfwiretap.replica import effective_snr

    return node_expectation_reference(np.tanh, effective_snr(m, cfg), cfg.quadrature)


def log_cosh_expectation_mp(e, rule):
    """``sum_i w_i log cosh(e + sqrt(e) x_i)`` in 50-digit arithmetic.

    The rule's float nodes and weights are taken as exact; everything else,
    ``sqrt(e)`` included, is computed to 50 digits.
    """
    import mpmath as mp

    with mp.workdps(50):
        e = mp.mpf(float(e))
        root = mp.sqrt(e)
        total = mp.fsum(
            mp.mpf(float(w)) * mp.log(mp.cosh(e + root * mp.mpf(float(x))))
            for x, w in zip(rule.nodes, rule.weights)
        )
        return float(total)


def minimize_reference(f, lo, hi, grid_step, refine_tol):
    """``_minimize_with_diagnostics`` as one scalar call per grid point.

    The loop the row-blocked grid replaced: ``f`` is called on each grid
    float in turn, and each interior point no higher than both neighbours is
    refined by golden section.  Same return value as
    ``_minimize_with_diagnostics`` called without ``stationary``; with one,
    interior minima where it changes sign are refined at its root instead.
    """
    from gfwiretap.errors import NumericalError
    from gfwiretap.numerics import TIE_TOL, _golden_section

    n_cells = max(1, int(math.ceil((hi - lo) / grid_step - 1e-12)))
    grid = np.linspace(lo, hi, n_cells + 1)
    vals = np.array([float(f(float(x))) for x in grid])
    if not np.all(np.isfinite(vals)):
        bad = grid[~np.isfinite(vals)][0]
        raise NumericalError(f"objective is non-finite at grid point {float(bad)!r}")

    interior = []
    for i in range(1, len(grid) - 1):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            interior.append(
                _golden_section(f, float(grid[i - 1]), float(grid[i + 1]), refine_tol)
            )

    candidates = [(float(grid[0]), float(vals[0])), (float(grid[-1]), float(vals[-1]))]
    candidates.extend(interior)
    best_val = min(v for _, v in candidates)
    arg = max(x for x, v in candidates if v - best_val <= TIE_TOL)
    val = next(v for x, v in candidates if x == arg)
    return arg, val, tuple(interior), float(vals[0]), float(vals[-1])


def solve_overlap_reference(cfg):
    """``solve_overlap`` by ``minimize_reference`` on the unpruned rule.

    Every energy is one float call on the 396-node rule at every SNR, as
    before the grid was evaluated in row blocks over the nodes that carry
    weight and before small SNRs took cheaper rules, and interior minima are
    refined by golden section on the energy, not at the root of
    ``m - F(m)``; on a flat minimum the two differ by up to ~1e-7 in ``m``.
    """
    from dataclasses import replace

    from gfwiretap.numerics import DEFAULT_QUADRATURE_ORDER
    from gfwiretap.replica import (
        GRID_STEP,
        REFINE_TOL,
        ReplicaSolution,
        energy,
        fixed_point_map,
    )

    cfg = replace(cfg, quadrature=full_rule(DEFAULT_QUADRATURE_ORDER))
    m_star, info_rate, interior, e0, e1 = minimize_reference(
        lambda m: energy(m, cfg), 0.0, 1.0, GRID_STEP, REFINE_TOL
    )
    return ReplicaSolution(
        m_star=m_star,
        info_rate=info_rate,
        energy_at_0=e0,
        energy_at_1=e1,
        fixed_point_residual=abs(m_star - fixed_point_map(m_star, cfg)),
        tie_flag=abs(e0 - e1) <= 1e-12,
        interior_minima=interior,
    )


#: Candidates per block of sign rows in ``codeword_table_reference``.
_PATTERN_BLOCK = 2**14

#: Floats in the first product's intermediate for one chunk of rows in
#: ``evaluate_rows_reference``.
_ROW_CHUNK_FLOATS = 2**15


def evaluate_rows_reference(fld, rows):
    """``field.evaluate`` of every row of a ``(B, dim)`` block, as ``(B, n_out)``.

    Contracts slot by slot, sharing no code with the Walsh-Hadamard
    enumeration: one matrix product of the rows against the coefficients
    flattened to ``(n_out * dim**(order-1), dim)``, then ``order - 1``
    batched matrix-vector products, each with the row's own input.  Rows
    are walked in chunks so the intermediate stays near
    ``_ROW_CHUNK_FLOATS`` floats.
    """
    dim = fld.spec.dim
    flat = fld.coeffs.reshape(-1, dim)
    chunk = max(1, _ROW_CHUNK_FLOATS // flat.shape[0])
    out = np.empty((len(rows), fld.spec.n_out))
    for lo in range(0, len(rows), chunk):
        block = rows[lo : lo + chunk]
        t = block @ flat.T
        for _ in range(fld.spec.order - 1):
            t = np.matmul(t.reshape(len(block), -1, dim), block[:, :, None])[..., 0]
        out[lo : lo + chunk] = t
    return fld.scale * out


def _candidate_blocks(coordinate_of_bit):
    """Yield ``(start, rows)`` covering every bipolar pattern in order.

    ``rows[j]`` is the bipolar vector of pattern integer ``start + j``, whose
    bit ``b`` (1 meaning +1) sets coordinate ``coordinate_of_bit[b]``.
    Blocks hold at most ``_PATTERN_BLOCK`` patterns, so callers never hold
    the full ``(2**dim, dim)`` sign matrix.
    """
    dim = coordinate_of_bit.size
    bits = np.arange(dim, dtype=np.int64)
    total = 1 << dim
    for start in range(0, total, _PATTERN_BLOCK):
        patterns = np.arange(start, min(start + _PATTERN_BLOCK, total), dtype=np.int64)
        rows = np.empty((patterns.size, dim))
        rows[:, coordinate_of_bit] = ((patterns[:, None] >> bits) & 1) * 2.0 - 1.0
        yield start, rows


def codeword_table_reference(fld, plan):
    """``simulate._codeword_table`` by ``evaluate_rows_reference`` over sign rows.

    The fill the Walsh-Hadamard kernel replaced: every pattern's permuted
    bipolar vector is built explicitly and evaluated from scratch.
    """
    table = np.empty((1 << fld.spec.dim, fld.spec.n_out))
    for start, rows in _candidate_blocks(plan.permutation):
        table[start : start + len(rows)] = evaluate_rows_reference(fld, rows)
    return table


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

    The per-field loop the chunked draw replaced: each field's coefficient
    tensor is drawn on its own from the probe's single stream of ``seed``,
    wrapped as a :class:`GaussianField`, and ``s1`` and each probe are
    evaluated one at a time before the same-output and cross-output
    products are averaged.
    """
    from gfwiretap.field import GaussianField, evaluate

    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    scale = math.sqrt(spec.power / spec.dim**spec.order)
    same = np.empty((len(s2_list), n_fields))
    cross = np.empty((len(s2_list), n_fields))
    for i in range(n_fields):
        coeffs = rng.standard_normal((spec.n_out,) + (spec.dim,) * spec.order)
        field = GaussianField(spec=spec, coeffs=coeffs, scale=scale)
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
