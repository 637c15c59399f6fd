"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's own numerical paths:
posterior means are summed term by term in 50-digit arithmetic, the scalar
channel is integrated in 50-digit arithmetic by mpmath, Monte Carlo
reference values were generated once from a fixed seed and frozen, and the
reference solver evaluates the energy one grid point at a time by
quadrature on scipy's unpruned order-1600 rule, never through the package's
``energy``, ``decoupled_mi`` or ``fixed_point_map``.
"""

import functools
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


@functools.lru_cache(maxsize=1)
def full_rule():
    """scipy's Gauss-Hermite rule of order ``REFERENCE_ORDER``, every node of
    nonzero weight kept (938 nodes), so it shares no code with the package's
    trapezoidal rule."""
    from scipy.special import roots_hermitenorm

    from gfwiretap.numerics import QuadratureRule

    nodes, weights = roots_hermitenorm(REFERENCE_ORDER)
    keep = weights > 0.0
    nodes, weights = nodes[keep], weights[keep]
    return QuadratureRule(nodes=nodes, weights=weights / weights.sum())


def log_cosh_reference(x):
    """``log cosh(x)`` as the out-of-place ``(|x| + log1p(exp(-2|x|))) - log 2``."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


#: Order of the rule the reference solver integrates on.  Against 50-digit
#: integrals it is within 8.5e-15 on ``F`` (near e = 1.5) and 1.3e-14 on
#: ``I`` over e in [0, 100]; order 800 is off by 1.4e-13 on ``F`` at 18.8.
REFERENCE_ORDER = 1600

#: Integrand values per block in ``_expectation_reference``.
_BLOCK_FLOATS = 2**14


def _expectation_reference(g, e):
    """``E_w[g(e + sqrt(e) w)]`` on the unpruned order-1600 rule.

    A float ``e`` gives a float; an array gives an array of its shape,
    summed in blocks of rows of at most ``2**14`` integrand values, each an
    out-of-place ``(rows, nodes)`` array that ``g`` may not write to.
    """
    from gfwiretap.numerics import gauss_expectation

    rule = full_rule()
    e = np.asarray(e, dtype=float)
    col = e.reshape(-1, 1)
    out = np.empty(col.shape[0])
    step = max(1, _BLOCK_FLOATS // rule.nodes.size)
    for lo in range(0, col.shape[0], step):
        blk = col[lo : lo + step]
        out[lo : lo + step] = gauss_expectation(lambda w: g(blk + np.sqrt(blk) * w), rule)
    return float(out[0]) if e.ndim == 0 else out.reshape(e.shape)


def mi_reference(e):
    """``I(e) = e - E_w[log cosh(e + sqrt(e) w)]`` on the unpruned order-1600
    rule, with the out-of-place ``log_cosh_reference``; not clipped."""
    return e - _expectation_reference(log_cosh_reference, e)


def fp_reference(e):
    """``F(e) = E_w[tanh(e + sqrt(e) w)]`` on the unpruned order-1600 rule."""
    return _expectation_reference(np.tanh, e)


def energy_reference(m, cfg):
    """``replica.energy`` composed as ``rate * I_D + C_D + (1 - m) C_D'``.

    ``I_D`` is ``mi_reference`` at ``effective_snr(m)``, clipped to
    ``[0, log 2]``; only the elementwise terms come from the package.
    """
    from gfwiretap.channel import LOG2
    from gfwiretap.replica import cd, cd_prime, effective_snr

    mi = np.minimum(np.maximum(mi_reference(effective_snr(m, cfg)), 0.0), LOG2)
    return cfg.rate * mi + cd(m, cfg) + (1.0 - m) * cd_prime(m, cfg)


def fixed_point_map_reference(m, cfg):
    """``replica.fixed_point_map`` as ``fp_reference``."""
    from gfwiretap.replica import effective_snr

    return fp_reference(effective_snr(m, cfg))


@functools.lru_cache(maxsize=None)
def scalar_channel_mp(e):
    """The scalar channel at SNR ``e`` as true integrals, to 50 digits.

    Returns ``(I, F, log 2 - I, 1 - F)`` as floats, from the identities
    ``log 2 - I = E[log(1 + exp(-2x))]`` and ``1 - F = E[2 / (1 + exp(2x))]``
    with ``x = e + sqrt(e) w``, ``w ~ N(0, 1)``, which hold without
    cancellation at large ``e``.  mpmath's tanh-sinh quadrature integrates
    both against the normal density as the real and imaginary parts of one
    integrand, on [-17, 17] split where ``x = 0``; the density beyond is
    below 1e-62.  No Gauss-Hermite rule is involved.
    """
    import mpmath as mp

    with mp.workdps(50):
        snr = mp.mpf(float(e))
        root = mp.sqrt(snr)
        norm = 1 / mp.sqrt(2 * mp.pi)

        def tails(w):
            z = mp.exp(-2 * (snr + root * w))
            density = mp.exp(-w * w / 2) * norm
            return mp.mpc(mp.log1p(z) * density, 2 * z / (1 + z) * density)

        t = mp.quad(tails, [-17, -root, 17])
        return (
            float(mp.log(2) - t.real),
            float(1 - t.imag),
            float(t.real),
            float(t.imag),
        )


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
    """``solve_overlap`` by ``minimize_reference`` on the order-1600 rule.

    Every energy is one float ``energy_reference`` call, and interior minima
    are refined by golden section on the energy, not at the root of
    ``m - F(m)``; on a flat minimum the two differ by up to ~1e-7 in ``m``.
    """
    from gfwiretap.replica import GRID_STEP, REFINE_TOL, ReplicaSolution

    m_star, info_rate, interior, e0, e1 = minimize_reference(
        lambda m: energy_reference(m, cfg), 0.0, 1.0, GRID_STEP, REFINE_TOL
    )
    return ReplicaSolution(
        m_star=m_star,
        info_rate=info_rate,
        energy_at_0=e0,
        energy_at_1=e1,
        fixed_point_residual=abs(m_star - fixed_point_map_reference(m_star, cfg)),
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
