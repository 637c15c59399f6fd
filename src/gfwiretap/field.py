"""Gaussian random fields with covariance ``power * <s1;s2>**order``.

A field maps bipolar vectors of length ``dim`` to real vectors of length
``n_out`` through an order-``order`` polynomial whose ``n_out * dim**order``
coefficients are i.i.d. standard normal:

    V_n(s) = scale * sum_{i1..iq} A[n, i1, ..., iq] * s_{i1} * ... * s_{iq}

with ``scale = sqrt(power / dim**order)``.  Over resampled coefficient
tensors, outputs at any two inputs are jointly Gaussian with

    E[V_m(s1) V_n(s2)] = 1{m == n} * power * (<s1;s2>)**order

where ``<s1;s2> = s1.s2 / dim`` is the normalized inner product.  The
coefficient tensor is deliberately not symmetrized; the covariance law holds
either way and the full tensor avoids multinomial bookkeeping.

``evaluate`` takes one input or a block of ``B`` inputs.  A block is
contracted slot by slot: one matrix product of the rows against the
coefficient tensor flattened to ``(n_out * dim**(order-1), dim)``, then
``order - 1`` batched matrix-vector contractions, each with the pattern's
own row.  Rows are walked in chunks of ``2**15 // (n_out * dim**(order-1))``
(at least one), so the first product's intermediate stays near ``2**15``
floats; larger chunks cost memory, smaller ones per-call overhead.

Fields are immutable after sampling; ``evaluate`` and ``evaluate_flipped``
are read-only and safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError

__all__ = [
    "DEFAULT_COEFF_BUDGET",
    "FieldSpec",
    "GaussianField",
    "sample_field",
    "evaluate",
    "evaluate_flipped",
    "covariance_probe",
]

#: Maximum number of materialized coefficients (~256 MiB of float64).
DEFAULT_COEFF_BUDGET = 2**25

#: Floats in the intermediate of one chunk of a batched evaluation.
_CHUNK_FLOATS = 2**15


@dataclass(frozen=True)
class FieldSpec:
    """Shape, covariance parameters, and seed of a field to be sampled."""

    n_out: int
    dim: int
    order: int
    power: float
    seed: int

    def __post_init__(self):
        if self.n_out < 1 or self.dim < 1:
            raise ValueError(f"n_out and dim must be >= 1, got {self.n_out}, {self.dim}")
        if not (isinstance(self.order, (int, np.integer)) and self.order >= 1):
            raise ValueError(f"order must be an integer >= 1, got {self.order}")
        if not (math.isfinite(self.power) and self.power > 0.0):
            raise ValueError(f"power must be finite and > 0, got {self.power}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    @property
    def coeff_count(self) -> int:
        return self.n_out * self.dim**self.order


@dataclass(frozen=True)
class GaussianField:
    """A sampled field: spec, coefficient tensor, and output scale."""

    spec: FieldSpec
    coeffs: np.ndarray  # shape (n_out,) + (dim,) * order, read-only
    scale: float


def sample_field(spec: FieldSpec, budget: int = DEFAULT_COEFF_BUDGET) -> GaussianField:
    """Draw the coefficient tensor for ``spec``; deterministic per seed."""
    count = spec.coeff_count
    if count > budget:
        raise BudgetError(
            f"field would need {count} coefficients "
            f"(n_out={spec.n_out}, dim={spec.dim}, order={spec.order}); "
            f"budget is {budget}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(int(spec.seed)))
    shape = (spec.n_out,) + (spec.dim,) * spec.order
    coeffs = rng.standard_normal(shape)
    coeffs.setflags(write=False)
    scale = math.sqrt(spec.power / spec.dim**spec.order)
    return GaussianField(spec=spec, coeffs=coeffs, scale=scale)


def _check_bipolar(s, dim: int, ndim: int = 1) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim != ndim or s.shape[-1] != dim:
        raise ValueError(f"input must have length {dim}, got shape {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("input entries must be exactly +1 or -1")
    return s


def evaluate(field: GaussianField, s) -> np.ndarray:
    """Contract the coefficient tensor against ``s`` in every slot.

    ``s`` is one bipolar vector of length ``dim``, giving ``(n_out,)``, or a
    block of them with shape ``(B, dim)``, giving ``(B, n_out)`` whose row
    ``b`` matches the single evaluation of ``s[b]`` to rounding.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim == 2:
        return _evaluate_rows(field, _check_bipolar(s, field.spec.dim, ndim=2))
    s = _check_bipolar(s, field.spec.dim)
    out = field.coeffs
    for _ in range(field.spec.order):
        out = out @ s
    return field.scale * out


def _evaluate_rows(field: GaussianField, rows: np.ndarray) -> np.ndarray:
    dim = field.spec.dim
    flat = field.coeffs.reshape(-1, dim)
    chunk = max(1, _CHUNK_FLOATS // flat.shape[0])
    out = np.empty((rows.shape[0], field.spec.n_out))
    for lo in range(0, rows.shape[0], chunk):
        block = rows[lo : lo + chunk]
        t = block @ flat.T
        for _ in range(field.spec.order - 1):
            t = np.matmul(t.reshape(len(block), -1, dim), block[:, :, None])[..., 0]
        out[lo : lo + chunk] = t
    return field.scale * out


def evaluate_flipped(
    field: GaussianField,
    s,
    base_output: np.ndarray,
    flip_index: int,
) -> np.ndarray:
    """Output after flipping one coordinate of ``s``, updated incrementally.

    ``base_output`` must equal ``evaluate(field, s)``.  Only the terms that
    involve ``flip_index`` are recomputed (cost O(n_out * dim**(order-1))),
    so the result matches a fresh evaluation up to ~1e-9 per entry.
    """
    spec = field.spec
    s = _check_bipolar(s, spec.dim)
    if not 0 <= flip_index < spec.dim:
        raise ValueError(f"flip_index must be in [0, {spec.dim}), got {flip_index}")
    base_output = np.asarray(base_output, dtype=float)
    if base_output.shape != (spec.n_out,):
        raise ValueError(
            f"base_output must have shape ({spec.n_out},), got {base_output.shape}"
        )

    # s' = s - d with d = 2 s_j e_j.  Expanding the multilinear contraction
    # over which slots take d gives, for every non-empty slot subset S, a
    # term (-2 s_j)^{|S|} times the tensor sliced at j on S and contracted
    # with s elsewhere.
    d = 2.0 * s[flip_index]
    delta = np.zeros(spec.n_out)
    for q in range(1, spec.order + 1):
        coef = (-d) ** q
        for subset in itertools.combinations(range(spec.order), q):
            sub = field.coeffs
            for axis in sorted(subset, reverse=True):
                sub = np.take(sub, flip_index, axis=1 + axis)
            for _ in range(spec.order - q):
                sub = sub @ s
            delta = delta + coef * sub
    return base_output + field.scale * delta


def covariance_probe(
    spec: FieldSpec,
    s1,
    s2_list,
    n_fields: int,
    seed: int,
):
    """Empirical output covariances over ``n_fields`` resampled fields.

    For each probe vector in ``s2_list`` this accumulates the same-output
    product ``V_0(s1) V_0(s2)`` and the cross-output product
    ``V_0(s1) V_1(s2)`` (hence ``spec.n_out`` must be >= 2), and returns a
    list of ``(mean_same, se_same, mean_cross, se_cross)`` tuples.
    """
    if spec.n_out < 2:
        raise ValueError("covariance_probe needs n_out >= 2 for the cross term")
    if n_fields < 2:
        raise ValueError(f"n_fields must be >= 2, got {n_fields}")
    s1 = _check_bipolar(s1, spec.dim)
    probes = [_check_bipolar(s2, spec.dim) for s2 in s2_list]
    # row 0 is s1 and the probes follow, so each field takes one evaluation
    rows = np.vstack([s1] + probes)

    seeds = np.random.SeedSequence(int(seed)).generate_state(n_fields, dtype=np.uint64)
    same = np.empty((len(probes), n_fields))
    cross = np.empty((len(probes), n_fields))
    for i, field_seed in enumerate(seeds):
        field = sample_field(
            FieldSpec(spec.n_out, spec.dim, spec.order, spec.power, int(field_seed))
        )
        v = evaluate(field, rows)
        same[:, i] = v[0, 0] * v[1:, 0]
        cross[:, i] = v[0, 0] * v[1:, 1]

    results = []
    root_n = math.sqrt(n_fields)
    for j in range(len(probes)):
        results.append(
            (
                float(same[j].mean()),
                float(same[j].std(ddof=1) / root_n),
                float(cross[j].mean()),
                float(cross[j].std(ddof=1) / root_n),
            )
        )
    return results
