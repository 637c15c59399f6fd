"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's own numerical paths:
posterior means are summed term by term in 50-digit arithmetic, the scalar
channel is integrated in 50-digit arithmetic by mpmath, Monte Carlo
reference values were generated once from a fixed seed and frozen, and the
reference solver evaluates the energy one grid point at a time by
quadrature on scipy's unpruned order-1600 rule, with its terms in closed form
here, never through the package's ``replica`` module.  A second
scalar-channel reference integrates on a trapezoidal rule built here at half
the package's step.
"""

import functools
import itertools
import math
import types

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
    """``(nodes, weights)`` of scipy's Gauss-Hermite rule of order
    ``REFERENCE_ORDER``, every node of nonzero weight kept (938 nodes), so
    it shares no code with the package's trapezoidal rule."""
    from scipy.special import roots_hermitenorm

    nodes, weights = roots_hermitenorm(REFERENCE_ORDER)
    keep = weights > 0.0
    nodes, weights = nodes[keep], weights[keep]
    return nodes, weights / weights.sum()


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
    nodes, weights = full_rule()
    e = np.asarray(e, dtype=float)
    col = e.reshape(-1, 1)
    out = np.empty(col.shape[0])
    step = max(1, _BLOCK_FLOATS // nodes.size)
    for lo in range(0, col.shape[0], step):
        blk = col[lo : lo + step]
        out[lo : lo + step] = np.einsum("...i,i->...", g(blk + np.sqrt(blk) * nodes), weights)
    return float(out[0]) if e.ndim == 0 else out.reshape(e.shape)


def mi_reference(e):
    """``I(e) = e - E_w[log cosh(e + sqrt(e) w)]`` on the unpruned order-1600
    rule, with the out-of-place ``log_cosh_reference``; not clipped."""
    return e - _expectation_reference(log_cosh_reference, e)


def fp_reference(e):
    """``F(e) = E_w[tanh(e + sqrt(e) w)]`` on the unpruned order-1600 rule."""
    return _expectation_reference(np.tanh, e)


def _snr_reference(m, cfg):
    """``(phi, phi', snr)`` at overlap ``m``: ``phi = P m**lambda``,
    ``phi' = P lambda m**(lambda - 1)`` and the scalar-channel SNR
    ``phi' / (rate (sigma^2 + P - phi))``."""
    p, lam = cfg.power, cfg.order
    phi, slope = p * m**lam, p * lam * m ** (lam - 1)
    return phi, slope, slope / (cfg.rate * (cfg.sigma_sq + p - phi))


def energy_reference(m, cfg):
    """``replica.energy`` composed as ``rate * I_D + C_D + (1 - m) C_D'``.

    ``I_D`` is ``mi_reference`` at the SNR, clipped to ``[0, log 2]``;
    ``C_D = log1p((P - phi) / sigma^2) / 2`` and
    ``C_D' = -phi' / (2 (sigma^2 + P - phi))``.
    """
    phi, slope, snr = _snr_reference(m, cfg)
    mi = np.minimum(np.maximum(mi_reference(snr), 0.0), math.log(2.0))
    cd = 0.5 * np.log1p((cfg.power - phi) / cfg.sigma_sq)
    cd_prime = -slope / (2.0 * (cfg.sigma_sq + cfg.power - phi))
    return cfg.rate * mi + cd + (1.0 - m) * cd_prime


def fixed_point_map_reference(m, cfg):
    """``replica.fixed_point_map`` as ``fp_reference`` at the SNR."""
    return fp_reference(_snr_reference(m, cfg)[2])


def scalar_channel_fine(e):
    """``(I(e), F(e))`` on a trapezoidal rule at step 1/32 on ``|w| <= 12``.

    The nodes are ``j / 32`` and their weights the normal density there,
    normalised, built here in numpy alone: half the package's step, and a
    tail cut where the density is below 1e-31.  ``e`` is an array; values
    are summed in blocks of rows of at most ``2**14``, each one ``(rows,
    nodes)`` array with ``log_cosh_reference`` out of place.
    """
    w = np.arange(-12 * 32, 12 * 32 + 1) / 32.0
    density = np.exp(-0.5 * w * w)
    weights = density / density.sum()
    e = np.asarray(e, dtype=float).ravel()
    mi, fp = np.empty(e.size), np.empty(e.size)
    step = max(1, _BLOCK_FLOATS // w.size)
    for lo in range(0, e.size, step):
        col = e[lo : lo + step, None]
        x = col + np.sqrt(col) * w
        mi[lo : lo + step] = col[:, 0] - log_cosh_reference(x) @ weights
        fp[lo : lo + step] = np.tanh(x) @ weights
    return mi, fp


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
    """Grid-then-refine minimization, as one scalar call per grid point.

    ``f`` is called on each grid float in turn, and each interior point no
    higher than both neighbours is refined by golden section on ``f`` over
    its two neighbours' bracket, with no stationarity function.  Returns
    ``(argmin, min_value, interior, f_lo, f_hi)`` like
    ``_minimize_with_diagnostics``, with the same tie rule.
    """
    from gfwiretap.errors import NumericalError
    from gfwiretap.numerics import TIE_TOL

    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0

    def golden_section(a, b):
        # shrink [a, b] to width <= refine_tol; the best evaluated point
        c, d = b - inv_golden * (b - a), a + inv_golden * (b - a)
        fc, fd = float(f(c)), float(f(d))
        while (b - a) > refine_tol:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_golden * (b - a)
                fc = float(f(c))
            else:
                a, c, fc = c, d, fd
                d = a + inv_golden * (b - a)
                fd = float(f(d))
        best, f_best = (c, fc) if fc <= fd else (d, fd)
        mid = 0.5 * (a + b)
        f_mid = float(f(mid))
        return (mid, f_mid) if f_mid <= f_best else (best, f_best)

    n_cells = max(1, int(math.ceil((hi - lo) / grid_step - 1e-12)))
    grid = np.linspace(lo, hi, n_cells + 1)
    vals = np.array([float(f(float(x))) for x in grid])
    if not np.all(np.isfinite(vals)):
        bad = grid[~np.isfinite(vals)][0]
        raise NumericalError(f"objective is non-finite at grid point {float(bad)!r}")

    interior = []
    for i in range(1, len(grid) - 1):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            interior.append(golden_section(float(grid[i - 1]), float(grid[i + 1])))

    candidates = [(float(grid[0]), float(vals[0])), (float(grid[-1]), float(vals[-1]))]
    candidates.extend(interior)
    best_val = min(v for _, v in candidates)
    arg = max(x for x, v in candidates if v - best_val <= TIE_TOL)
    val = next(v for x, v in candidates if x == arg)
    return arg, val, tuple(interior), float(vals[0]), float(vals[-1])


def solve_overlap_reference(cfg, grid_step, refine_tol):
    """``solve_overlap`` by ``minimize_reference`` on the order-1600 rule.

    Every energy is one float ``energy_reference`` call, and interior minima
    are refined by golden section on the energy, not at the root of
    ``m - F(m)``; on a flat minimum the two differ by up to ~1e-7 in ``m``.
    Returns a namespace with the fields of ``replica.ReplicaSolution``.
    """
    m_star, info_rate, interior, e0, e1 = minimize_reference(
        lambda m: energy_reference(m, cfg), 0.0, 1.0, grid_step, refine_tol
    )
    return types.SimpleNamespace(
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

#: Floats in the characters of one chunk of rows in
#: ``evaluate_rows_reference``.
_ROW_CHUNK_FLOATS = 2**15


@functools.cache
def support_reference(dim, order):
    """The field's index sets and their counts, by folding every index tuple.

    Each of the ``dim**order`` ordered index tuples is reduced to the set of
    indices it holds an odd number of times (``s_i**2 == 1``).  Returns the
    sets that occur, by size and then in lexicographic order, with the
    number of tuples that reduce to each.
    """
    tuples = np.indices((dim,) * order).reshape(order, -1)
    masks, counts = np.unique(
        np.bitwise_xor.reduce(np.left_shift(1, tuples), axis=0), return_counts=True
    )
    found = {
        tuple(i for i in range(dim) if mask >> i & 1): int(c)
        for mask, c in zip(masks.tolist(), counts)
    }
    sets = sorted(found, key=lambda s: (len(s), s))
    return sets, [found[s] for s in sets]


def evaluate_rows_reference(fld, rows):
    """``field.evaluate`` of every row of a ``(B, dim)`` block, as ``(B, n_out)``.

    Builds each set's character column by column from ``support_reference``,
    sharing no code with the field's support table or its Walsh-Hadamard
    enumeration, and meets them with the coefficients in one matrix product
    per chunk of rows.  Rows are walked in chunks so the characters stay
    near ``_ROW_CHUNK_FLOATS`` floats.
    """
    sets, _ = support_reference(fld.spec.dim, fld.spec.order)
    chunk = max(1, _ROW_CHUNK_FLOATS // len(sets))
    out = np.empty((len(rows), fld.spec.n_out))
    for lo in range(0, len(rows), chunk):
        block = rows[lo : lo + chunk]
        chars = np.column_stack([np.prod(block[:, list(s)], axis=1) for s in sets])
        out[lo : lo + chunk] = chars @ fld.coeffs.T
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
    """The codewords of ``simulate._codeword_table``, one row per pattern, by
    ``evaluate_rows_reference`` over sign rows.

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


def sample_leakage_terms(table, pattern, y, k, k_tilde, sigma_sq):
    """``(leak, full, genie)`` of one observation ``y`` of ``pattern``.

    Scores ``table - y`` over every codeword by direct differences, with two
    ``logsumexp`` calls.
    """
    from scipy.special import logsumexp

    LOG2 = math.log(2.0)
    n = table.shape[1]
    diff = table - y
    log_like = -(0.5 / sigma_sq) * np.einsum("ij,ij->i", diff, diff)
    by_message = log_like.reshape(1 << k, 1 << k_tilde)

    lp_joint = log_like[pattern]
    lp_given_msg = float(logsumexp(by_message[pattern >> k_tilde])) - k_tilde * LOG2
    lp_marginal = float(logsumexp(log_like)) - (k + k_tilde) * LOG2
    return (
        (lp_given_msg - lp_marginal) / n,
        (lp_joint - lp_marginal) / n,
        (lp_joint - lp_given_msg) / n,
    )


def leakage_terms_reference(cfg, table, n_samples):
    """Per-sample ``(leak, full, genie)`` terms of the leakage estimator.

    The one-sample-at-a-time loop the block scorer replaced: each sample
    draws its message and key as scalars and its noise as one length-``n``
    vector from the estimator's streams, then is scored by
    :func:`sample_leakage_terms`.
    """
    from gfwiretap.simulate import _TAG_LEAK_INPUT, _TAG_LEAK_NOISE, _stream

    k, k_tilde, n = cfg.k, cfg.k_tilde, cfg.n
    sigma = math.sqrt(cfg.sigma_e_sq)
    rng_input = _stream(cfg.key_seed, 0, _TAG_LEAK_INPUT)
    rng_noise = _stream(cfg.noise_seed, 0, _TAG_LEAK_NOISE)

    terms = np.empty((3, n_samples))
    for i in range(n_samples):
        msg_pattern = int(rng_input.integers(0, 1 << k))
        key_pattern = int(rng_input.integers(0, 1 << k_tilde))
        pattern = (msg_pattern << k_tilde) | key_pattern
        y = table[pattern] + rng_noise.normal(0.0, sigma, size=n)
        terms[:, i] = sample_leakage_terms(table, pattern, y, k, k_tilde, cfg.sigma_e_sq)
    return terms


def covariance_probe_reference(spec, s1, s2_list, n_fields, seed):
    """``covariance_probe`` as one field at a time, by ``evaluate_rows_reference``.

    The per-field loop the chunked draw replaced: each field's coefficients
    are drawn on their own from the probe's single stream of ``seed``, one
    standard normal per output and set of ``support_reference`` times the
    square root of its count, and ``s1`` and the probes are evaluated as
    rows before the same-output and cross-output products are averaged.
    """
    from gfwiretap.field import GaussianField

    sets, counts = support_reference(spec.dim, spec.order)
    root = np.sqrt(np.array(counts, dtype=float))
    rows = np.array([s1] + list(s2_list), dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    scale = math.sqrt(spec.power / spec.dim**spec.order)
    same = np.empty((len(s2_list), n_fields))
    cross = np.empty((len(s2_list), n_fields))
    for i in range(n_fields):
        coeffs = rng.standard_normal((spec.n_out, len(sets))) * root
        v = evaluate_rows_reference(GaussianField(spec=spec, coeffs=coeffs, scale=scale), rows)
        same[:, i] = v[0, 0] * v[1:, 0]
        cross[:, i] = v[0, 0] * v[1:, 1]
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
