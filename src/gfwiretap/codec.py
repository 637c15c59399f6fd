"""Keyed wiretap encoder and exact Bayesian decoder.

Encoding: draw ``k_tilde`` uniform bipolar key symbols, prefix them to the
bipolar message, and permute the concatenation so that every bin of the
permuted vector holds exactly one key symbol; the codeword is the field
evaluation of the permuted vector.

Decoding: the posterior mean of the permuted vector under the true noise
model, computed as the exact normalized sum over all ``2**(k + k_tilde)``
bipolar candidates, followed by the inverse permutation and a sign slicer on
the message coordinates.

Encoding and decoding of distinct frames are independent.  A decode scores
every candidate by its squared residual up to the constant ``|y|**2``,

    sum_n (y_n - V_n(s))**2 = |y|**2 - 2 sum_S b_S chi_S(s) + sum_n V_n(s)**2,

with ``b = scale * y @ coeffs``.  Where the support's ``sets**2`` pairs cost
less than one output's transform (order 3 up to ``dim`` 20), the last term's
Walsh spectrum comes from the field's Gram matrix (``field._gram_spectrum``),
and one fast Walsh-Hadamard transform of that spectrum minus ``2 b`` gives
every candidate's score: ``O(n sets**2 + 2**dim dim)`` work and ``O(sets**2 +
2**dim)`` memory.  The expanded square cancels ``|y|**2`` against the summed
squares, so its scores err by ~``eps sum|spectrum| / (2 sigma_sq)`` nats;
where that, times the weight off the top candidate, exceeds ``_GRAM_TOL``
and also exceeds the direct residuals' own rounding, ~``eps`` times the top
candidate's squared residual over ``2 sigma_sq``, and wherever the pairs
cost more, the residuals are summed directly over the blocks of outputs of
``field._enumerate_outputs`` at the support's cached bit masks, one
transform per block.  The weights are exponentiated once against their
maximum.  The coordinate means come from two small products: the weights,
viewed as a ``(2**H, 2**L)`` matrix of the high ``H`` and low ``L = ceil((k
+ k_tilde) / 2)`` pattern bits, are summed to their column and row
marginals, and each marginal meets a ``(bits, 2**bits)`` table of signs.
Memory does not grow with ``n`` on either route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import _require_order, _require_positive, _require_seed, bin_size, key_length
from .errors import BudgetError, ConfigurationError, NumericalError
from .field import (
    GaussianField,
    _enumerate_outputs,
    _gram_pairs,
    _gram_spectrum,
    _support,
    _walsh,
    evaluate,
)

__all__ = [
    "DEFAULT_ENUM_BUDGET",
    "CodecConfig",
    "BinningPlan",
    "EncodedFrame",
    "message_to_bipolar",
    "bipolar_to_message",
    "random_key",
    "build_binning",
    "encode",
    "mmse_estimate",
    "decode",
]

#: Largest total input dimension the exact decoder will enumerate.  At n=16,
#: order 3, where it takes the Gram route, a decode took ~5-6 ms at 2**16
#: candidates, ~9-15 ms at 2**18 and ~34-45 ms at 2**20 (best of 5; 2-vCPU
#: Xeon, numpy 2.4), with traced peaks of 5.6, 12.6 and 28.5 MiB beside a
#: cached pair index of 5.8 MiB at 2**20: each further bit adds ~50-100% to
#: both.
DEFAULT_ENUM_BUDGET = 20

_EPS = float(np.finfo(float).eps)

#: Largest rounding the Gram route's scores may carry, in nats times the
#: weight off the top candidate.  The expanded square cancels ``|y|**2``
#: against the summed squares, so its scores err by up to ~2.4 times ``eps
#: * sum|spectrum| / (2 sigma_sq)`` nats; on ~3000 random decodes (orders
#: 1-4, dims 2-14, n 1-1024, sigma_sq 1e-5 to 100) the mean's error stayed
#: below that times the weight off the top, so a kept mean is within
#: ~1e-13 of exact.
_GRAM_TOL = 1e-13


@dataclass(frozen=True, slots=True)
class CodecConfig:
    """All scheme parameters: sizes, field order, powers, noises, seeds.

    ``k_tilde`` defaults to the key budget ``key_length(n, power,
    sigma_e_sq)``; ``k_tilde_overridden`` tells whether it differs from it.
    Field orders below 3 leak through their linear component and are only
    admitted with ``allow_low_order`` set (ablations).
    """

    n: int
    k: int
    sigma_b_sq: float
    sigma_e_sq: float
    order: int = 3
    power: float = 1.0
    k_tilde: int | None = None
    field_seed: int = 0
    perm_seed: int = 1
    key_seed: int = 2
    noise_seed: int = 3
    allow_low_order: bool = False

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"n and k must be >= 1, got {self.n}, {self.k}")
        _require_order(self.order)
        if self.order < 3 and not self.allow_low_order:
            raise ConfigurationError(
                f"field order {self.order} has a linear/quadratic component; "
                f"pass allow_low_order=True to run it as an ablation"
            )
        _require_positive(
            sigma_b_sq=self.sigma_b_sq, sigma_e_sq=self.sigma_e_sq, power=self.power
        )
        for name in ("field_seed", "perm_seed", "key_seed", "noise_seed"):
            _require_seed(name, getattr(self, name))
        budget = key_length(self.n, self.power, self.sigma_e_sq)
        if self.k_tilde is None:
            object.__setattr__(self, "k_tilde", budget)
        elif self.k_tilde < 1:
            raise ValueError(f"k_tilde must be >= 1, got {self.k_tilde}")

    @property
    def k_tilde_overridden(self) -> bool:
        return self.k_tilde != key_length(self.n, self.power, self.sigma_e_sq)

    @property
    def k_tot(self) -> int:
        return self.k + self.k_tilde


@dataclass(frozen=True)
class BinningPlan:
    """Permutation with the one-key-symbol-per-bin property.

    ``permutation[j]`` is the position of concatenation slot ``j`` in the
    permuted vector; slots ``0..k_tilde-1`` hold the key.  Bin ``l`` (from 0)
    covers positions ``[l*width, min((l+1)*width, k+k_tilde))`` and contains
    exactly one key position.
    """

    permutation: np.ndarray
    width: int
    key_positions: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.permutation, dtype=np.int64)
        keys = np.asarray(self.key_positions, dtype=np.int64)
        # the checks run on Python ints: a plan holds tens of positions, where
        # each numpy call costs more than the whole check does in a list
        slots, key_list = perm.tolist(), keys.tolist()
        total, k_tilde = len(slots), len(key_list)
        if sorted(slots) != list(range(total)):
            raise ValueError("permutation is not a bijection on its index range")
        if k_tilde < 1 or k_tilde > total:
            raise ValueError(f"need 1 <= k_tilde <= {total}, got {k_tilde}")
        if key_list != sorted(slots[:k_tilde]):
            raise ValueError("key_positions must be the sorted images of the key slots")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        # a key past the last bin leaves an earlier bin empty, which is found first
        per_bin = [0] * k_tilde
        for pos in key_list:
            if pos // self.width < k_tilde:
                per_bin[pos // self.width] += 1
        bad = [ell for ell, count in enumerate(per_bin) if count != 1]
        if bad:
            ell = bad[0]
            lo, hi = ell * self.width, min((ell + 1) * self.width, total)
            raise ValueError(
                f"bin {ell} (positions [{lo}, {hi})) holds {per_bin[ell]} key "
                f"symbols, expected exactly 1"
            )
        perm.setflags(write=False)
        keys.setflags(write=False)
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "key_positions", keys)

    @property
    def k_tilde(self) -> int:
        return self.key_positions.size

    @property
    def k_tot(self) -> int:
        return self.permutation.size


@dataclass(frozen=True)
class EncodedFrame:
    """One encoded transmission: message symbols, key, permuted vector, codeword."""

    s: np.ndarray
    key: np.ndarray
    s_tilde: np.ndarray
    x: np.ndarray


def message_to_bipolar(m: int, k: int) -> np.ndarray:
    """Bipolar representation of a message integer; bit i == 0 maps to -1.

    Bits are taken least-significant first, so coordinate ``i`` carries bit
    ``i`` of ``m``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= m < 2**k:
        raise ValueError(f"message {m} out of range [0, 2**{k})")
    # Python ints, so any width: uint64 cannot hold a message of 65+ bits
    return np.array([(m >> i) & 1 for i in range(k)], dtype=float) * 2.0 - 1.0


def bipolar_to_message(s) -> int:
    """Inverse of :func:`message_to_bipolar`."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or not np.all(np.abs(s) == 1.0):
        raise ValueError("input must be a 1-d vector of +1/-1 entries")
    return sum(1 << i for i, bit in enumerate((s > 0).tolist()) if bit)


def random_key(k_tilde: int, rng: np.random.Generator) -> np.ndarray:
    """``k_tilde`` i.i.d. uniform bipolar key symbols."""
    return rng.integers(0, 2, size=k_tilde).astype(float) * 2.0 - 1.0


def build_binning(k: int, k_tilde: int, perm_seed: int) -> BinningPlan:
    """Draw a one-key-per-bin permutation; deterministic per seed.

    Each key symbol's position is drawn uniformly within its bin and the
    message symbols are scattered uniformly over the remaining positions.
    """
    width = bin_size(k, k_tilde)
    total = k + k_tilde
    if (k_tilde - 1) * width >= total:
        raise ConfigurationError(
            f"bin layout degenerates for k={k}, k_tilde={k_tilde}: bin "
            f"{k_tilde - 1} of width {width} starts past the vector end, so "
            f"one key symbol per bin is unsatisfiable"
        )
    rng = np.random.default_rng(int(perm_seed))
    # one bounded draw per bin, in bin order, then a shuffle of the other
    # positions: the same draws as one ``integers`` call with per-bin bounds
    # and a ``permutation``, on Python ints, which at a few positions cost
    # less than numpy calls
    key_positions = [
        lo + int(rng.integers(0, min(width, total - lo)))
        for lo in range(0, k_tilde * width, width)
    ]
    keys = set(key_positions)
    message_positions = [pos for pos in range(total) if pos not in keys]
    rng.shuffle(message_positions)
    return BinningPlan(
        permutation=key_positions + message_positions,
        width=width,
        key_positions=key_positions,
    )


def _check_enum_budget(dim: int) -> None:
    if dim > DEFAULT_ENUM_BUDGET:
        raise BudgetError(
            f"exact posterior needs 2**{dim} codeword evaluations; "
            f"enumeration budget is 2**{DEFAULT_ENUM_BUDGET}"
        )


def _check_artifacts(cfg: CodecConfig, fld: GaussianField, plan: BinningPlan):
    spec = fld.spec
    if (spec.n_out, spec.dim, spec.order) != (cfg.n, cfg.k_tot, cfg.order) or (
        spec.power != cfg.power
    ):
        raise ConfigurationError(
            f"field spec (n_out={spec.n_out}, dim={spec.dim}, order={spec.order}, "
            f"power={spec.power}) does not match config (n={cfg.n}, "
            f"k_tot={cfg.k_tot}, order={cfg.order}, power={cfg.power})"
        )
    if plan.k_tot != cfg.k_tot or plan.k_tilde != cfg.k_tilde:
        raise ConfigurationError(
            f"binning plan covers {plan.k_tot} positions with {plan.k_tilde} "
            f"keys; config needs {cfg.k_tot} and {cfg.k_tilde}"
        )


def encode(
    cfg: CodecConfig,
    fld: GaussianField,
    plan: BinningPlan,
    m: int,
    key,
) -> EncodedFrame:
    """Map a message integer and key vector to a codeword."""
    _check_artifacts(cfg, fld, plan)
    s = message_to_bipolar(m, cfg.k)
    key = np.asarray(key, dtype=float)
    if key.shape != (cfg.k_tilde,) or not np.all(np.abs(key) == 1.0):
        raise ValueError(f"key must be a bipolar vector of length {cfg.k_tilde}")
    concat = np.concatenate([key, s])
    s_tilde = np.empty(cfg.k_tot)
    s_tilde[plan.permutation] = concat
    x = evaluate(fld, s_tilde)
    return EncodedFrame(s=s, key=key, s_tilde=s_tilde, x=x)


@functools.cache
def _bit_signs(bits: int) -> np.ndarray:
    """``(bits, 2**bits)`` table whose entry ``(i, p)`` is +1 where bit ``i``
    of ``p`` is set and -1 where it is clear, read-only."""
    signs = ((np.arange(1 << bits) >> np.arange(bits)[:, None]) & 1) * 2.0 - 1.0
    signs.setflags(write=False)
    return signs


def _bit_means(sq: np.ndarray, dim: int, sigma_sq: float) -> tuple[np.ndarray, float, float]:
    """Posterior means of the ``dim`` pattern bits from the squared residuals
    ``sq``, known up to a constant and overwritten with the weights; the
    weights' total, the top weight being 1; and the top log-weight."""
    # a subnormal sigma_sq overflows the scale to inf, and inf times a zero
    # residual is nan: refused below, without a warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        sq *= -0.5 / sigma_sq
        top = sq.max()
    if not math.isfinite(top):
        raise NumericalError(
            f"posterior log-weights have no finite maximum at sigma_sq={sigma_sq!r}"
        )
    sq -= top
    # row h, column l of the weights is the pattern (h << low) | l, so the
    # column sums are the marginals of the low bits and the row sums those
    # of the high bits
    low = (dim + 1) // 2
    weights = np.exp(sq, out=sq).reshape(-1, 1 << low)
    low_marginal = weights.sum(axis=0)
    high_marginal = weights.sum(axis=1)
    r = np.concatenate(
        [_bit_signs(low) @ low_marginal, _bit_signs(dim - low) @ high_marginal]
    )
    total = float(low_marginal.sum())
    return np.clip(r / total, -1.0, 1.0), total, float(top)


def mmse_estimate(
    fld: GaussianField,
    y,
    sigma_sq: float,
) -> np.ndarray:
    """Exact posterior mean of the bipolar input given ``y``.

    Sums over all ``2**dim`` candidates.  Each candidate's squared residual,
    less ``|y|**2``, is the fast Walsh-Hadamard transform of the field's
    Gram spectrum minus ``2 scale * y @ coeffs`` at the sets' masks (the
    Gram route), where its pairs cost less than one output's transform and
    its rounding cannot move the mean by more than ~``_GRAM_TOL`` or is no
    larger than the direct residuals' own; else the residuals are summed
    directly over blocks of outputs.  The scores are exponentiated once
    against their maximum; coordinate ``i`` of the result is the signed sum
    of the weights over bit ``i`` of the pattern integer, divided by their
    total.  Every coordinate of the result lies in [-1, 1].  Raises
    :class:`NumericalError` when the log-weights have no finite maximum, as
    when ``sigma_sq`` is subnormal.
    """
    spec = fld.spec
    _require_positive(sigma_sq=sigma_sq)
    _check_enum_budget(spec.dim)
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.n_out,):
        raise ValueError(f"y must have shape ({spec.n_out},), got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite, got a NaN or an infinite entry")

    masks = _support(spec.dim, spec.order)[2]
    pairs = _gram_pairs(spec.dim, spec.order)
    if pairs is not None:
        # the expanded square less |y|**2, which drops out of the max shift
        spectrum = _gram_spectrum(fld, pairs)
        spectrum[masks] -= (2.0 * fld.scale) * (y @ fld.coeffs)
        rounding = _EPS * float(np.abs(spectrum).sum()) * 0.5 / sigma_sq
        r, total, top = _bit_means(_walsh(spectrum, spec.dim), spec.dim, sigma_sq)
        # the direct residuals round by ~eps times the top candidate's own
        # squared residual, |y|**2 + min(spectrum's transform), over 2 sigma_sq
        if rounding * (1.0 - 1.0 / total) <= _GRAM_TOL or rounding <= _EPS * (
            float(y @ y) * 0.5 / sigma_sq - top
        ):
            return r
    # the residuals themselves: where the pairs cost more, or where the
    # expanded square's rounding could move a spread posterior's mean more
    sq = np.zeros(1 << spec.dim)
    for lo, block in _enumerate_outputs(fld, masks):
        block -= y[lo : lo + len(block), None]
        block *= block
        # a one-row block is added as it is: its sum would be a copy, at
        # dim 20 a fresh 8-MiB mapping per output
        sq += block[0] if len(block) == 1 else block.sum(axis=0)
    return _bit_means(sq, spec.dim, sigma_sq)[0]


def decode(cfg: CodecConfig, plan: BinningPlan, r_tilde) -> tuple[int, np.ndarray]:
    """Invert the permutation and slice the sign of the message coordinates.

    ``sgn(0)`` resolves to +1.
    """
    r_tilde = np.asarray(r_tilde, dtype=float)
    if r_tilde.shape != (cfg.k_tot,):
        raise ValueError(f"r_tilde must have length {cfg.k_tot}, got {r_tilde.shape}")
    r = r_tilde[plan.permutation]
    s_hat = np.where(r[cfg.k_tilde :] >= 0.0, 1.0, -1.0)
    return bipolar_to_message(s_hat), s_hat

