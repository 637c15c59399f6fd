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

``enumerate_outputs`` gives the outputs on all ``2**dim`` inputs at once,
in blocks of ``max(1, _BLOCK_FLOATS >> dim)`` outputs.  On the hypercube
``s_i**2 == 1``, so each output is a multilinear polynomial: an index
tuple's monomial reduces to the product over the indices that occur an odd
number of times.  A block's coefficients are first folded onto those index
sets (one ``np.bincount`` over the block, each output's sets offset by
``2**dim`` times its row, so every sum runs in the same order as a fold of
that output alone), and the folded rows are then taken to their values on
every input by a fast Walsh-Hadamard transform, applied ``_HADAMARD_BITS``
bits at a time: one matrix product for the lowest group and one batched
product per further group, each with the Kronecker power of
``[[1, -1], [1, 1]]``.  Cost per output is ``O(dim**order)`` for the fold
plus ``O(2**dim * dim)`` multiply-adds for the transform, against
``O(2**dim * dim**order)`` for evaluating every input.  Memory is a few
blocks of at most ``_BLOCK_FLOATS`` floats, or of one ``2**dim`` row when
that is larger, plus one fold index per coefficient of a block, whatever
``n_out``.

``covariance_probe`` samples its fields without building them.  One
generator, seeded from the probe's ``seed``, supplies every field: field
``i``'s coefficient tensor is the ``i``-th run of ``n_out * dim**order``
standard normals, with the same law, shape and ``scale`` as a
:func:`sample_field` tensor.  Fields are drawn in chunks of
``_CHUNK_FLOATS // (n_out * dim**order)`` (at least one), one
``(fields * n_out, dim**order)`` draw each, and a chunk is contracted in one
matrix product against the order-fold Kronecker powers of ``s1`` and the
probes.  Chunking does not change the stream, so the result does not depend
on the chunk size beyond rounding; the normal draws are most of the cost.

Fields are immutable after sampling; ``evaluate``, ``evaluate_flipped`` and
``enumerate_outputs`` are read-only and safe to call concurrently.
"""

from __future__ import annotations

import functools
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
    "enumerate_outputs",
    "covariance_probe",
]

#: Maximum number of materialized coefficients (~256 MiB of float64).
DEFAULT_COEFF_BUDGET = 2**25

#: Floats in the coefficients of one chunk of fields drawn by
#: ``covariance_probe``.
_CHUNK_FLOATS = 2**15

#: Floats in one block of outputs yielded by ``enumerate_outputs`` (at least
#: one output).  A block array stays below glibc malloc's 128-KiB mmap
#: threshold, and the transform's first product (32 multiply-adds a float)
#: below the 2**19 at which OpenBLAS starts threads: at 2**14 floats every
#: 1024-candidate decode took ~128 page faults, as its arrays were mapped or
#: trimmed and touched afresh, and ran ~14% slower than one output at a time.
_BLOCK_FLOATS = 2**13

#: Bits of the pattern integer taken by one matrix product of the transform.
_HADAMARD_BITS = 5


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


def _check_budget(spec: FieldSpec) -> None:
    count = spec.coeff_count
    if count > DEFAULT_COEFF_BUDGET:
        raise BudgetError(
            f"field would need {count} coefficients "
            f"(n_out={spec.n_out}, dim={spec.dim}, order={spec.order}); "
            f"budget is {DEFAULT_COEFF_BUDGET}"
        )


def sample_field(spec: FieldSpec) -> GaussianField:
    """Draw the coefficient tensor for ``spec``; deterministic per seed."""
    _check_budget(spec)
    rng = np.random.default_rng(np.random.SeedSequence(int(spec.seed)))
    shape = (spec.n_out,) + (spec.dim,) * spec.order
    coeffs = rng.standard_normal(shape)
    coeffs.setflags(write=False)
    scale = math.sqrt(spec.power / spec.dim**spec.order)
    return GaussianField(spec=spec, coeffs=coeffs, scale=scale)


def _check_bipolar(s, dim: int) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (dim,):
        raise ValueError(f"input must have length {dim}, got shape {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("input entries must be exactly +1 or -1")
    return s


def evaluate(field: GaussianField, s) -> np.ndarray:
    """Contract the coefficient tensor against the bipolar vector ``s`` of
    length ``dim`` in every slot, giving ``(n_out,)``."""
    s = _check_bipolar(s, field.spec.dim)
    out = field.coeffs
    for _ in range(field.spec.order):
        out = out @ s
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


@functools.cache
def _hadamard(bits: int) -> np.ndarray:
    """``bits``-fold Kronecker power of ``[[1, -1], [1, 1]]``, read-only."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.kron(h, [[1.0, -1.0], [1.0, 1.0]])
    h.setflags(write=False)
    return h


def enumerate_outputs(field: GaussianField, bit_of_coordinate):
    """Yield the outputs on every bipolar input, in blocks of rows.

    Each block is a ``(rows, 2**dim)`` array of consecutive outputs, with
    ``rows = max(1, _BLOCK_FLOATS >> dim)`` (fewer in the last block).  Row
    ``o`` of the stacked blocks has entry ``p`` equal to
    ``evaluate(field, s)[o]`` to rounding, for the input ``s`` with
    ``s[c] = +1`` exactly where bit ``bit_of_coordinate[c]`` of ``p`` is
    set.  ``bit_of_coordinate`` must be a permutation of ``range(dim)``.
    Each block is freshly allocated, so callers may overwrite it.
    """
    spec = field.spec
    bit_of_coordinate = np.asarray(bit_of_coordinate, dtype=np.int64)
    if not np.array_equal(np.sort(bit_of_coordinate), np.arange(spec.dim)):
        raise ValueError(f"bit_of_coordinate must be a permutation of range({spec.dim})")
    # the monomial of an index tuple is the character of the bits its
    # indices set an odd number of times (repeated pairs square to 1); the
    # XORs start from each row's offset r << dim, above every index bit, so
    # row r of a block folds into bins [r << dim, (r + 1) << dim)
    total = 1 << spec.dim
    rows = min(spec.n_out, max(1, _BLOCK_FLOATS >> spec.dim))
    single = np.left_shift(1, bit_of_coordinate)
    bins = np.arange(rows) << spec.dim
    for _ in range(spec.order):
        bins = np.bitwise_xor.outer(bins, single)
    bins = bins.ravel()
    coeffs = field.coeffs.reshape(spec.n_out, -1)
    first = min(_HADAMARD_BITS, spec.dim)
    for lo in range(0, spec.n_out, rows):
        block = coeffs[lo : lo + rows]
        m = len(block)
        values = np.bincount(bins[: block.size], weights=block.ravel(), minlength=m * total)
        # per bit, a set holding the bit has character -1 or +1 as the
        # pattern bit is 0 or 1, and a set without it has +1: H maps the
        # pair (without, with) to (bit 0, bit 1).  The lowest group is one
        # product against the rows of a 2-d view, which is faster than a
        # batch of matrix-vector products.
        values = values.reshape(-1, 1 << first) @ _hadamard(first).T
        done = first
        while done < spec.dim:
            bits = min(_HADAMARD_BITS, spec.dim - done)
            values = np.matmul(_hadamard(bits), values.reshape(-1, 1 << bits, 1 << done))
            done += bits
        values = values.reshape(m, total)
        values *= field.scale
        yield values


def covariance_probe(
    spec: FieldSpec,
    s1,
    s2_list,
    n_fields: int,
    seed: int | None = None,
):
    """Empirical output covariances over ``n_fields`` resampled fields.

    For each probe vector in ``s2_list`` this accumulates the same-output
    product ``V_0(s1) V_0(s2)`` and the cross-output product
    ``V_0(s1) V_1(s2)`` (hence ``spec.n_out`` must be >= 2), and returns a
    list of ``(mean_same, se_same, mean_cross, se_cross)`` tuples.  The
    fields come from one standard-normal stream of ``seed``: field ``i``'s
    coefficient tensor is the ``i``-th run of ``spec.coeff_count`` draws.
    ``seed`` defaults to ``spec.seed``; when both are given, ``seed`` wins.
    """
    if spec.n_out < 2:
        raise ValueError("covariance_probe needs n_out >= 2 for the cross term")
    if n_fields < 2:
        raise ValueError(f"n_fields must be >= 2, got {n_fields}")
    _check_budget(spec)
    s1 = _check_bipolar(s1, spec.dim)
    probes = [_check_bipolar(s2, spec.dim) for s2 in s2_list]
    # row r of `powers` is the order-fold Kronecker power of input r (s1
    # first, the probes after), so a flattened coefficient row dotted with
    # it is that output's full contraction at input r
    rows = np.vstack([s1] + probes)
    powers = np.ones((len(rows), 1))
    for _ in range(spec.order):
        powers = (powers[:, :, None] * rows[:, None, :]).reshape(len(rows), -1)
    scale = math.sqrt(spec.power / spec.dim**spec.order)

    seed = spec.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    chunk = max(1, _CHUNK_FLOATS // spec.coeff_count)
    same = np.empty((len(probes), n_fields))
    cross = np.empty((len(probes), n_fields))
    for lo in range(0, n_fields, chunk):
        m = min(chunk, n_fields - lo)
        coeffs = rng.standard_normal((m * spec.n_out, powers.shape[1]))
        v = (coeffs @ powers.T).reshape(m, spec.n_out, -1)
        v *= scale
        same[:, lo : lo + m] = (v[:, 0, :1] * v[:, 0, 1:]).T
        cross[:, lo : lo + m] = (v[:, 0, :1] * v[:, 1, 1:]).T

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
