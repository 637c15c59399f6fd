"""Monte Carlo harness: AWGN transmission, end-to-end decoding metrics, and
exact-posterior leakage estimation at enumerable sizes, returned as values
(the ``simulate`` and ``leakage`` subcommands of ``cli`` write them out).

Per-trial randomness is derived by seeding a fresh generator from
``(seed, trial_id, stream_tag)``, so trials are independent units of work
and results do not depend on the order in which they run.  Asymptotic
claims (vanishing error, vanishing leakage) are not desk-scale observables;
this module asserts the finite-size identities and bounds instead and
reports asymptotic predictions only as annotated references.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .channel import LOG2
from .codec import (
    BinningPlan,
    CodecConfig,
    _check_artifacts,
    _check_enum_budget,
    build_binning,
    decode,
    encode,
    mmse_estimate,
    random_key,
)
from .errors import BudgetError, NumericalError
from .field import FieldSpec, GaussianField, _enumerate_outputs, _support, sample_field
from .field import _BLOCK_FLOATS, _PRODUCT_MADDS, _product

__all__ = [
    "TrialRecord",
    "SimReport",
    "LeakageEstimate",
    "transmit",
    "run_trial",
    "run_experiment",
    "estimate_leakage",
]

# Stream tags feeding the per-trial generator derivation.
_TAG_MESSAGE = 0  # the message, then the key
_TAG_NOISE = 2
_TAG_FIELD = 3
_TAG_PERM = 4
_TAG_LEAK_INPUT = 5
_TAG_LEAK_NOISE = 6

#: Memory guard for the leakage estimator's codeword table, and for its
#: sample arrays (floats).
_TABLE_BUDGET = 2**26
#: Largest distance ``W`` (nats) from a sample to its own codeword at which
#: the scorer shifts by the own log-likelihood: shifted entries are at most
#: ``W``, and ``e**600 * 2**20`` is far below the largest double.  Farther
#: samples shift by their row maximum.  ``W`` is ``chi2_n / 2`` whatever the
#: noise variance, so only ``n`` above ~1100 reaches it.
_FAR_NATS = 600.0


def _stream(seed: int, trial_id: int, tag: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(trial_id), int(tag)))


def _derived_seed(seed: int, trial_id: int, tag: int) -> int:
    seq = np.random.SeedSequence((int(seed), int(trial_id), int(tag)))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """Metrics of one encode-transmit-decode round trip.

    ``flip_fraction`` counts permuted coordinates whose posterior-mean sign
    disagrees with the truth; ``overlap`` is the normalized inner product
    between the true permuted vector and the posterior mean.
    """

    trial_id: int
    message: int
    decoded: int
    bit_errors: int
    flip_fraction: float
    overlap: float

    @property
    def overlap_sign(self) -> float:
        """Overlap against the hard signs, ``1 - 2 * flip_fraction``.

        Equal to ``<s_tilde; sign(r_tilde)>`` up to representation rounding;
        written this way so the identity holds bit-exactly.
        """
        return 1.0 - 2.0 * self.flip_fraction

    @property
    def bound_ok(self) -> bool:
        """Whether the deterministic bound ``f <= 1 - <s; r>`` holds."""
        return self.flip_fraction <= 1.0 - self.overlap


@dataclass(frozen=True, slots=True)
class LeakageEstimate:
    """Monte Carlo mutual-information estimates, nats per channel use.

    ``leakage`` estimates the message leakage I(message; eavesdropper
    output)/n for the fixed field and plan; ``mi_all_symbols`` the leakage of
    the full permuted vector, ``mi_key_given_msg`` the genie-aided key term.
    The three share samples, so ``chain_residual = |leakage -
    (mi_all_symbols - mi_key_given_msg)|`` is floating-point small.
    """

    n_samples: int
    leakage: float
    leakage_se: float
    mi_all_symbols: float
    mi_all_symbols_se: float
    mi_key_given_msg: float
    mi_key_given_msg_se: float
    chain_residual: float


@dataclass(frozen=True, slots=True)
class SimReport:
    """Reliability aggregate of a batch of trials, plus provenance.

    Leakage is measured separately, by :func:`estimate_leakage`.
    ``wall_clock_s`` is informational and excluded from equality so that
    reports from identical configs compare equal regardless of scheduling.
    Records and reports use slots and derive ``rng_provenance`` from the
    config, so a caller that keeps thousands of them holds little memory.
    """

    config: CodecConfig
    n_trials: int
    freeze_field: bool
    freeze_plan: bool
    trials: tuple[TrialRecord, ...]
    message_error_rate: float
    mean_flip_fraction: float
    mean_flip_fraction_se: float
    mean_overlap: float
    mean_overlap_se: float
    wall_clock_s: float = dataclass_field(compare=False, default=0.0)

    @property
    def rng_provenance(self) -> str:
        cfg = self.config
        return (
            "PCG64 generators seeded from SeedSequence((seed, trial_id, stream_tag)); "
            f"seeds: field={cfg.field_seed} perm={cfg.perm_seed} "
            f"key={cfg.key_seed} noise={cfg.noise_seed}"
        )


def transmit(x, sigma_sq: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise of variance ``sigma_sq``."""
    x = np.asarray(x, dtype=float)
    if not (math.isfinite(sigma_sq) and sigma_sq >= 0.0):
        raise ValueError(f"sigma_sq must be finite and >= 0, got {sigma_sq}")
    if sigma_sq == 0.0:
        return x
    # the values of x + rng.normal(0.0, sqrt(sigma_sq)), which draws
    # 0.0 + scale * z, in one array
    y = rng.standard_normal(x.shape)
    y *= math.sqrt(sigma_sq)
    y += x
    return y


def _trial_field(cfg: CodecConfig, trial_id: int) -> GaussianField:
    spec = FieldSpec(
        n_out=cfg.n,
        dim=cfg.k_tot,
        order=cfg.order,
        power=cfg.power,
        seed=_derived_seed(cfg.field_seed, trial_id, _TAG_FIELD),
    )
    return sample_field(spec)


def _trial_plan(cfg: CodecConfig, trial_id: int) -> BinningPlan:
    return build_binning(
        cfg.k, cfg.k_tilde, _derived_seed(cfg.perm_seed, trial_id, _TAG_PERM)
    )


def run_trial(
    cfg: CodecConfig,
    fld: GaussianField,
    plan: BinningPlan,
    trial_id: int,
) -> TrialRecord:
    """Draw message, then key, from one stream; encode, transmit, decode."""
    rng_input = _stream(cfg.key_seed, trial_id, _TAG_MESSAGE)
    rng_noise = _stream(cfg.noise_seed, trial_id, _TAG_NOISE)

    m = int(rng_input.integers(0, 2**cfg.k))
    key = random_key(cfg.k_tilde, rng_input)
    frame = encode(cfg, fld, plan, m, key)
    y = transmit(frame.x, cfg.sigma_b_sq, rng_noise)
    r_tilde = mmse_estimate(fld, y, cfg.sigma_b_sq)
    decoded, s_hat = decode(cfg, plan, r_tilde)

    signs = np.where(r_tilde >= 0.0, 1.0, -1.0)
    k_tot = cfg.k_tot
    return TrialRecord(
        trial_id=trial_id,
        message=m,
        decoded=decoded,
        bit_errors=int(np.count_nonzero(s_hat != frame.s)),
        flip_fraction=int(np.count_nonzero(frame.s_tilde != signs)) / k_tot,
        overlap=float(frame.s_tilde @ r_tilde) / k_tot,
    )


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, float("nan")
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def run_experiment(
    cfg: CodecConfig,
    n_trials: int,
    freeze_field: bool = False,
    freeze_plan: bool = False,
    threads: int = 1,
) -> SimReport:
    """Run ``n_trials`` independent trials and aggregate their reliability.

    By default the field and the binning permutation are resampled per trial
    (averaging over encoder realizations); the freeze flags pin them to the
    trial-0 realization instead.  Trials run one after another.  ``threads``
    must be 1: the keyword stays only while ``DecodeFresh.run`` in
    ``benchmarks/workloads.py`` passes it.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    _check_enum_budget(cfg.k_tot)
    started = time.perf_counter()

    frozen_field = _trial_field(cfg, 0) if freeze_field else None
    frozen_plan = _trial_plan(cfg, 0) if freeze_plan else None
    trials = []
    for trial_id in range(n_trials):
        fld = frozen_field if frozen_field is not None else _trial_field(cfg, trial_id)
        plan = frozen_plan if frozen_plan is not None else _trial_plan(cfg, trial_id)
        trials.append(run_trial(cfg, fld, plan, trial_id))

    flip = np.array([t.flip_fraction for t in trials])
    overlap = np.array([t.overlap for t in trials])
    mean_f, se_f = _mean_and_se(flip)
    mean_ov, se_ov = _mean_and_se(overlap)

    return SimReport(
        config=cfg,
        n_trials=n_trials,
        freeze_field=freeze_field,
        freeze_plan=freeze_plan,
        trials=tuple(trials),
        message_error_rate=sum(t.decoded != t.message for t in trials) / n_trials,
        mean_flip_fraction=mean_f,
        mean_flip_fraction_se=se_f,
        mean_overlap=mean_ov,
        mean_overlap_se=se_ov,
        wall_clock_s=time.perf_counter() - started,
    )


def _codeword_table(fld: GaussianField, plan: BinningPlan) -> np.ndarray:
    """Score matrix of every concatenation pattern, indexed by pattern integer.

    Bit ``b`` of the pattern (1 meaning +1) sets concatenation slot ``b``:
    key slots first, then message slots.  The matrix is C-ordered, ``(n +
    2, 2**dim)``: column ``p`` holds the field output for the permuted
    vector of pattern ``p``, then its squared norm, then 1.  The outputs of
    ``field._enumerate_outputs`` at the support's masks in slot order are
    copied block by block into its rows, so only the enumeration's working
    set, at most four blocks, is held beside it.
    """
    # coordinate c takes its slot's bit; the padding pairs of index 0 cancel
    idx = _support(fld.spec.dim, fld.spec.order)[0]
    masks = np.bitwise_xor.reduce(np.left_shift(1, np.argsort(plan.permutation))[idx], axis=1)
    codes = np.empty((fld.spec.n_out + 2, 1 << fld.spec.dim))
    for lo, block in _enumerate_outputs(fld, masks):
        codes[lo : lo + len(block)] = block
    np.einsum("ij,ij->j", codes[:-2], codes[:-2], out=codes[-2])
    codes[-1] = 1.0
    return codes


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    """``log(sum(exp(x), axis=1))`` of a 2-D array of finite entries; ``x``
    is overwritten."""
    top = x.max(axis=1)
    x -= top[:, None]
    return top + np.log(np.exp(x, out=x).sum(axis=1))


def _score_rows(n: int, dim: int) -> int:
    """Samples per scoring block of :func:`_leakage_terms` (at least one)."""
    return max(1, (_PRODUCT_MADDS - 1) // ((n + 2) << dim))


def _observations(ys, sent, sigma_sq):
    """Observation rows and distances of samples ``ys`` of codewords ``sent``.

    Returns ``(obs, w)``: ``w[i] = |y_i - t_i|^2 / (2 sigma_sq)``, sample
    ``i``'s distance ``W_i`` from its own codeword, and ``obs[i]`` the row
    ``[2 inv y_i, -inv, W_i - inv |y_i|^2]`` with ``inv = 1 / (2 sigma_sq)``,
    whose product with a column ``[t, |t|^2, 1]`` of :func:`_codeword_table`
    is the log-likelihood of ``t`` less sample ``i``'s own, ``W_i - inv |y_i -
    t|^2``.  The rows are written into one ``(N, n + 2)`` array, and the
    residuals are formed in ``sent``, which is overwritten.
    """
    inv = 0.5 / sigma_sq
    n = ys.shape[1]
    np.subtract(ys, sent, out=sent)
    w = inv * np.einsum("ij,ij->i", sent, sent)
    obs = np.empty((len(ys), n + 2))
    np.multiply(ys, 2.0 * inv, out=obs[:, :n])
    obs[:, n] = -inv
    norms = np.einsum("ij,ij->i", ys, ys)
    norms *= inv
    np.subtract(w, norms, out=obs[:, n + 1])
    return obs, w


def _leakage_terms(codes, patterns, obs, w, k, k_tilde):
    """Per-sample log-posterior ratios over n, as ``(leak, full, genie)``.

    Sample ``i`` has observation row ``obs[i]`` and distance ``w[i]`` from
    :func:`_observations` for pattern ``patterns[i]``; ``codes`` is the score
    matrix of :func:`_codeword_table`, whose column ``(message << k_tilde) |
    key`` holds that pattern's codeword ``t``, ``|t|^2`` and 1.  The product
    of a row with ``codes`` is the sample's log-likelihoods shifted by its own
    codeword's, ``-W_i``.  Each block of samples is one matrix product
    against ``codes`` into a reused buffer, one in-place ``exp`` and one row
    sum: shifted entries are at most ``W_i`` and the own entry is ~0, so no
    sum underflows, and none overflows while ``W_i <= _FAR_NATS``.  A farther
    sample shifts by its row maximum instead, decided per sample, so no
    sample's terms depend on the others in its block.  Before the ``exp``,
    each sample's own-message slice of ``2**k_tilde`` entries is copied into
    a second reused buffer of one block's floats, ``2**k`` blocks of samples;
    each time it fills, and after the last block, one log-sum-exp over its
    rows gives the own-message terms, and its entry at the key's column the
    own entry.  A one-sample
    block is a gemv, not a gemm, and rounds differently, by ~1e-15 nats a
    sample.  A block holds as many samples as keep its product under
    ``_PRODUCT_MADDS``, so memory beyond ``codes`` and the samples is these
    two buffers of under ``_PRODUCT_MADDS / (n + 2)`` floats each (one
    sample's row when ``2**dim`` is larger) and a few floats per sample.
    """
    dim = k + k_tilde
    n = len(codes) - 2
    n_samples = len(obs)
    far = w > _FAR_NATS
    any_far = far.any()
    shift = np.zeros(n_samples)
    total = np.empty(n_samples)
    lp_joint = np.empty(n_samples)
    lp_given_msg = np.empty(n_samples)
    step = _score_rows(n, dim)
    buf = np.empty((min(step, n_samples), 1 << dim))
    # 2**k blocks' own-message slices, as many floats as one block, so the
    # buffer fills at the end of a block
    own = np.empty((min(step << k, n_samples), 1 << k_tilde))
    # a block's sample i has its message's slice at row (i << k) + message
    # of the block viewed as slices
    first = np.arange(len(buf)) << k
    filled = 0
    # at tiny noise the sums overflow; the caller's finiteness check
    # reports that, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, n_samples, step):
            block = slice(start, start + step)
            pattern = patterns[block]
            shifted = buf[: len(pattern)]
            _product(obs[block], codes, out=shifted)
            # mode "clip" writes straight into ``out``; "raise" buffers it
            np.take(
                shifted.reshape(-1, 1 << k_tilde),
                first[: len(pattern)] + (pattern >> k_tilde),
                axis=0,
                out=own[filled : filled + len(pattern)],
                mode="clip",
            )
            filled += len(pattern)
            end = start + len(pattern)
            if filled == len(own) or end == n_samples:
                done = slice(end - filled, end)
                slices = own[:filled]
                keys = patterns[done] & ((1 << k_tilde) - 1)
                lp_joint[done] = slices[np.arange(filled), keys]
                lp_given_msg[done] = _logsumexp_rows(slices)
                filled = 0
            if any_far and far[block].any():
                shift[block] = np.where(far[block], shifted.max(axis=1), 0.0)
                shifted -= shift[block, None]
            np.exp(shifted, out=shifted)
            shifted.sum(axis=1, out=total[block])
        # all three less W; lp_joint is the product's own entry, ~0, so that
        # its rounding cancels against the same entry in both sums
        lp_given_msg -= k_tilde * LOG2
        lp_marginal = shift + np.log(total) - dim * LOG2
    return (
        (lp_given_msg - lp_marginal) / n,
        (lp_joint - lp_marginal) / n,
        (lp_joint - lp_given_msg) / n,
    )


def _check_leakage_size(cfg: CodecConfig, n_samples: int) -> None:
    """Refuse a sample count below 2, and a leakage estimate beyond the
    enumeration budget or ``_TABLE_BUDGET``, before any work."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    dim = cfg.k_tot
    _check_enum_budget(dim)
    # the n + 2 score matrix, and while it is filled the enumeration's
    # working set: the block being copied, the next block's coefficients and
    # two of its transform's products; per sample: three n-vectors at the
    # peak, in _observations (the sent codeword, which becomes the residual,
    # the observation drawn by transmit, and its n + 2 observation row), and
    # at most 18 floats of indices, distances, shifts, sums and terms
    block = min(cfg.n, max(1, _BLOCK_FLOATS >> dim)) << dim
    for what, floats in (
        ("codeword table", ((cfg.n + 2) << dim) + 4 * block),
        (f"leakage samples (n_samples={n_samples}, n={cfg.n})", n_samples * (3 * cfg.n + 18)),
    ):
        if floats > _TABLE_BUDGET:
            raise BudgetError(f"{what} would hold {floats} floats; budget is {_TABLE_BUDGET}")


def estimate_leakage(
    cfg: CodecConfig,
    fld: GaussianField,
    plan: BinningPlan,
    n_samples: int,
) -> LeakageEstimate:
    """Estimate the eavesdropper mutual informations for fixed field and plan.

    Draws ``(message, key)`` uniformly, forms the eavesdropper observation,
    and averages exact log-posterior ratios: the message leakage marginalizes
    the key (``2**k_tilde`` terms) against the full marginal
    (``2**(k+k_tilde)`` terms), all in the log domain.  Also returns the two
    chain-decomposition terms estimated from the same samples.
    """
    _check_artifacts(cfg, fld, plan)
    _check_leakage_size(cfg, n_samples)
    k, k_tilde = cfg.k, cfg.k_tilde

    codes = _codeword_table(fld, plan)

    # One draw over interleaved (message, key) bounds and one over the whole
    # noise matrix give the same values as per-sample draws in that order.
    rng_input = _stream(cfg.key_seed, 0, _TAG_LEAK_INPUT)
    rng_noise = _stream(cfg.noise_seed, 0, _TAG_LEAK_NOISE)
    inputs = rng_input.integers(0, np.tile([1 << k, 1 << k_tilde], n_samples))
    patterns = (inputs[0::2] << k_tilde) | inputs[1::2]
    sent = codes[: cfg.n].T[patterns]
    ys = transmit(sent, cfg.sigma_e_sq, rng_noise)
    obs, w = _observations(ys, sent, cfg.sigma_e_sq)
    del ys, sent
    leak, full, genie = _leakage_terms(codes, patterns, obs, w, k, k_tilde)
    # the scorer's expanded square loses ~eps |t|^2 / (2 sigma_e_sq) nats on
    # each sample's own entry, which overflows the exp at tiny noise
    if not np.isfinite([leak, full, genie]).all():
        raise NumericalError(
            f"leakage terms are not finite at power={cfg.power!r}, "
            f"sigma_e_sq={cfg.sigma_e_sq!r}: the codewords are too large against "
            f"the eavesdropper noise to score in floats"
        )

    leak_mean, leak_se = _mean_and_se(leak)
    full_mean, full_se = _mean_and_se(full)
    genie_mean, genie_se = _mean_and_se(genie)
    return LeakageEstimate(
        n_samples=n_samples,
        leakage=leak_mean,
        leakage_se=leak_se,
        mi_all_symbols=full_mean,
        mi_all_symbols_se=full_se,
        mi_key_given_msg=genie_mean,
        mi_key_given_msg_se=genie_se,
        chain_residual=abs(leak_mean - (full_mean - genie_mean)),
    )
