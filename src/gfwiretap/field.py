"""Gaussian random fields with covariance ``power * <s1;s2>**order``.

A field maps bipolar vectors of length ``dim`` to real vectors of length
``n_out``.  On the hypercube ``s_i**2 == 1``, so an order-``order``
polynomial is a sum of characters ``chi_S(s) = prod_{i in S} s_i`` over the
index sets ``S`` with ``|S| <= order`` and ``|S| = order (mod 2)`` (the
support, by size and then in lexicographic order):

    V_n(s) = scale * sum_S coeffs[n, S] * chi_S(s),
    coeffs[n, S] = sqrt(count(S)) * Z[n, S],  scale = sqrt(power / dim**order)

with i.i.d. standard normal ``Z``.  ``count(S)``, which depends on ``|S|``
only, is the number of ordered ``order``-tuples of indices holding exactly
the indices of ``S`` an odd number of times.  Each tuple's monomial is
``chi_S``, so ``sum_S count(S) chi_S(s1) chi_S(s2) = (s1.s2)**order``, and
outputs at any two inputs are jointly Gaussian over resampled fields with

    E[V_m(s1) V_n(s2)] = 1{m == n} * power * (<s1;s2>)**order

where ``<s1;s2> = s1.s2 / dim``: the law of ``dim**order`` i.i.d. tensor
coefficients, held in ``n_out * sum_j C(dim, j)`` numbers.  At order 1 the
support is the singletons with count 1: a linear field is a matrix.

``_support`` builds, once per ``(dim, order)``, the table every reader
uses: each set's indices padded to ``order`` with pairs of index 0
(``s_0**2 == 1``), so ``prod(s[idx], axis=1)`` is every character at ``s``;
``sqrt(count)`` from the walk recurrence ``W(q, odd) = odd W(q-1, odd-1) +
(dim - odd) W(q-1, odd+1)`` in exact integers; and each set's bit mask.
``evaluate`` meets the coefficients with the characters; ``covariance_probe``
meets chunks of drawn fields with the characters of its inputs times
``sqrt(count)``; ``_enumerate_outputs`` writes blocks of coefficients at
their sets' bit masks and takes them to all ``2**dim`` inputs by a fast
Walsh-Hadamard transform (``_walsh``), ``O(2**dim * dim)`` multiply-adds an
output.

The exact decoder scores every input with one such transform instead of one
per output.  ``chi_S chi_T = chi_{S xor T}``, so ``sum_n V_n(s)**2`` has the
Walsh spectrum ``scale**2 * sum_{S xor T = U} (coeffs.T @ coeffs)[S, T]``:
``_gram_spectrum`` forms it from the Gram matrix, summed over the pairs of
sets that ``_gram_pairs`` groups by their mask XOR and caches per ``(dim,
order)`` beside the support, where the ``sets**2`` pairs cost less than one
output's transform.

Fields are immutable after sampling; ``evaluate`` and ``evaluate_flipped``
(``evaluate`` with one input coordinate negated) are read-only and safe to
call concurrently.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import _require_order, _require_positive, _require_seed
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

#: Maximum number of materialized coefficients, of support-table indices,
#: and of a covariance probe's per-field products (~256 MiB of 8-byte
#: numbers each).
DEFAULT_COEFF_BUDGET = 2**25

#: Floats in the coefficients of one chunk of fields drawn by
#: ``covariance_probe``.
_CHUNK_FLOATS = 2**15

#: Multiply-adds at which ``_product`` splits a BLAS product.  OpenBLAS runs
#: a smaller product on one thread, so its bits do not depend on the thread
#: count; larger Gram products rounded differently under 1 and 2 threads
#: from dim 13, and on a 2-vCPU host stalled 10-100x while the other vCPU
#: was busy.  ``_walsh`` and ``covariance_probe`` are not split: their bits
#: matched under 1 and 2 threads, and a split ``_walsh`` ran 10-20% slower.
_PRODUCT_MADDS = 2**19

#: Floats in one block of outputs yielded by ``_enumerate_outputs`` (at least
#: one output).  A block array stays below glibc malloc's 128-KiB mmap
#: threshold, and the transform's first product (32 multiply-adds a float)
#: below ``_PRODUCT_MADDS``: at 2**14 floats every 1024-candidate decode
#: took ~128 page faults, as its arrays were mapped or trimmed and touched
#: afresh, and ran ~14% slower than one output at a time.
_BLOCK_FLOATS = 2**13

#: Largest ``order * ceil(log2(dim))`` a field may have (dim 1 counts as 2).
#: It bounds ``dim**order``, and with it every walk count and the square of
#: any coefficient, by ``2**512``, well inside the float range; and it bounds
#: the support recurrence to ``order * min(order, dim)`` exact-integer steps.
_ORDER_BITS = 512

#: Bits of the pattern integer taken by one matrix product of the transform.
_HADAMARD_BITS = 5

#: Most ordered pairs of sets the Gram route takes: the cached indices of
#: their upper triangle hold 4 bytes a pair (8 MiB at the budget), which
#: admits order 3 up to dim 20.
_PAIR_BUDGET = 2**21


def _set_sizes(dim: int, order: int) -> range:
    """Sizes of the index sets in the support."""
    return range(order % 2, min(order, dim) + 1, 2)


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
        _require_order(self.order)
        _require_positive(power=self.power)
        _require_seed("seed", self.seed)

    @property
    def coeff_count(self) -> int:
        """Stored coefficients: ``n_out`` times the support's set count."""
        return self.n_out * sum(math.comb(self.dim, j) for j in _set_sizes(self.dim, self.order))


@dataclass(frozen=True)
class GaussianField:
    """A sampled field: spec, coefficients on the support, and output scale."""

    spec: FieldSpec
    coeffs: np.ndarray  # shape (n_out, sets), read-only
    scale: float


def _check_budget(spec: FieldSpec) -> None:
    bits = spec.order * max(1, (spec.dim - 1).bit_length())
    if bits > _ORDER_BITS:
        raise BudgetError(
            f"field order={spec.order} at dim={spec.dim} would take "
            f"dim**order up to 2**{bits}; budget is 2**{_ORDER_BITS}"
        )
    count = spec.coeff_count
    indices = count // spec.n_out * spec.order
    if max(count, indices) > DEFAULT_COEFF_BUDGET:
        raise BudgetError(
            f"field would need {count} coefficients and {indices} support indices "
            f"(n_out={spec.n_out}, dim={spec.dim}, order={spec.order}); "
            f"budget is {DEFAULT_COEFF_BUDGET}"
        )


@functools.lru_cache(maxsize=8)
def _support(dim: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support as read-only ``(sets, order)`` indices, each row a set's
    indices in increasing order then pairs of index 0; ``sqrt(count)``; and
    each set's bit mask, bit ``c`` for index ``c``."""
    # walks[j] = W(q, j): the q-tuples that clear a set of j indices when
    # each index toggles it; no set holds more than min(order, dim) indices
    top = min(order, dim)
    walks = [1] + [0] * top
    for _ in range(order):
        walks = [
            (odd * walks[odd - 1] if odd else 0)
            + (dim - odd) * (walks[odd + 1] if odd < top else 0)
            for odd in range(top + 1)
        ]
    sizes = _set_sizes(dim, order)
    padded = (c + (0,) * (order - j) for j in sizes for c in itertools.combinations(range(dim), j))
    idx = np.fromiter(itertools.chain.from_iterable(padded), dtype=np.intp).reshape(-1, order)
    root = np.repeat([math.sqrt(walks[j]) for j in sizes], [math.comb(dim, j) for j in sizes])
    # the padding pairs of index 0 cancel
    masks = np.bitwise_xor.reduce(np.left_shift(1, idx), axis=1)
    for table in (idx, root, masks):
        table.setflags(write=False)
    return idx, root, masks


def sample_field(spec: FieldSpec) -> GaussianField:
    """Draw the coefficients for ``spec``; deterministic per seed."""
    _check_budget(spec)
    root = _support(spec.dim, spec.order)[1]
    rng = np.random.default_rng(int(spec.seed))
    coeffs = rng.standard_normal((spec.n_out, len(root)))
    coeffs *= root
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
    """The ``(n_out,)`` outputs at the bipolar ``s``: coefficients times characters."""
    s = _check_bipolar(s, field.spec.dim)
    idx = _support(field.spec.dim, field.spec.order)[0]
    return field.scale * (field.coeffs @ np.prod(s[idx], axis=1))


def evaluate_flipped(
    field: GaussianField,
    s,
    base_output: np.ndarray,
    flip_index: int,
) -> np.ndarray:
    """Output after flipping coordinate ``flip_index`` of ``s``.

    ``base_output`` must equal ``evaluate(field, s)``; its shape is checked,
    and the result is ``evaluate`` at the flipped vector.
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
    flipped = s.copy()
    flipped[flip_index] = -flipped[flip_index]
    return evaluate(field, flipped)


@functools.cache
def _hadamard(bits: int) -> np.ndarray:
    """``bits``-fold Kronecker power of ``[[1, -1], [1, 1]]``, read-only."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.kron(h, [[1.0, -1.0], [1.0, 1.0]])
    h.setflags(write=False)
    return h


def _walsh(values: np.ndarray, dim: int) -> np.ndarray:
    """Fast Walsh-Hadamard transform of the rows of ``values``, a ``(rows,
    2**dim)`` array of coefficients at their sets' bit masks.

    Entry ``p`` of a row of the result is ``sum_U values[U] * chi_U(s)`` for
    the input ``s`` with ``s[c] = +1`` exactly where bit ``c`` of ``p`` is
    set, in ``2**dim * 2**_HADAMARD_BITS`` multiply-adds a row per group of
    ``_HADAMARD_BITS`` bits.
    """
    shape = values.shape
    first = min(_HADAMARD_BITS, dim)
    # per bit, a set holding the bit has character -1 or +1 as the pattern
    # bit is 0 or 1, and a set without it has +1: H maps the pair (without,
    # with) to (bit 0, bit 1).  The lowest group is one product against the
    # rows of a 2-d view, which is faster than a batch of matrix-vector
    # products.
    values = values.reshape(-1, 1 << first) @ _hadamard(first).T
    done = first
    while done < dim:
        bits = min(_HADAMARD_BITS, dim - done)
        values = np.matmul(_hadamard(bits), values.reshape(-1, 1 << bits, 1 << done))
        done += bits
    return values.reshape(shape)


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` (2-D) over slices of ``a``'s rows, each under ``_PRODUCT_MADDS``."""
    out = np.empty((len(a), b.shape[1])) if out is None else out
    step = max(1, (_PRODUCT_MADDS - 1) // (a.shape[1] * b.shape[1]))
    for lo in range(0, len(a), step):
        np.matmul(a[lo : lo + step], b, out=out[lo : lo + step])
    return out


@functools.lru_cache(maxsize=8)
def _gram_pairs(dim: int, order: int) -> tuple | None:
    """Where the Gram route is chosen, the pairs ``S < T`` of sets grouped by
    the XOR ``U`` of their masks, read-only; else ``None``.

    The pairs come as their flat indices into a ``(sets, sets)`` matrix,
    sorted by ``U``, with the start of each run of one ``U`` and that ``U``.
    The Gram route is chosen where the pairs number at most the
    multiply-adds of one output's transform and at most ``_PAIR_BUDGET``.
    """
    masks = _support(dim, order)[2]
    sets = len(masks)
    transform = (1 << (dim + _HADAMARD_BITS)) * -(-dim // _HADAMARD_BITS)
    if sets * sets > min(transform, _PAIR_BUDGET):
        return None
    rows, cols = np.triu_indices(sets, 1)
    xor = masks[rows] ^ masks[cols]
    by_xor = np.argsort(xor, kind="stable")
    xor = xor[by_xor]
    starts = np.flatnonzero(np.diff(xor, prepend=-1))
    pairs = ((rows * sets + cols)[by_xor], starts, xor[starts])
    for table in pairs:
        table.setflags(write=False)
    return pairs


def _gram_spectrum(field: GaussianField, pairs: tuple) -> np.ndarray:
    """Walsh spectrum of the summed squared outputs ``sum_n V_n(s)**2``.

    ``chi_S chi_T = chi_{S xor T}``, so entry ``U`` is ``scale**2`` times
    the sum of the Gram matrix ``coeffs.T @ coeffs`` over the pairs of sets
    whose masks XOR to ``U``: its trace at ``U = 0``, and twice its upper
    triangle, grouped by ``pairs`` from ``_gram_pairs``.  The Gram is
    summed over blocks of at most ``_BLOCK_FLOATS`` coefficients (at least
    one output), so memory is ``O(sets**2 + 2**dim)`` whatever ``n_out``,
    and ``_product`` keeps its bits free of the BLAS thread count."""
    coeffs = field.coeffs
    rows = max(1, _BLOCK_FLOATS // coeffs.shape[1])
    # against a copy numpy takes gemm, not syrk (half the speed, OpenBLAS 0.3.31)
    gram = _product(coeffs[:rows].T, coeffs[:rows].copy())
    for lo in range(rows, len(coeffs), rows):
        block = coeffs[lo : lo + rows]
        gram += _product(block.T, block.copy())
    flat, starts, keys = pairs
    # one sum per run of the sorted gather: at 130 sets, 8385 pairs onto
    # 466 entries, a third less time than a bincount
    spectrum = np.zeros(1 << field.spec.dim)
    spectrum[keys] = np.add.reduceat(gram.take(flat), starts)
    spectrum *= 2.0 * field.scale**2
    spectrum[0] += field.scale**2 * np.trace(gram)
    return spectrum


def _enumerate_outputs(field: GaussianField, masks: np.ndarray):
    """Yield the outputs on every bipolar input, in blocks of rows.

    ``masks`` are the support's bit masks under a one-to-one map of input
    coordinates to pattern bits.  Each block is a ``(rows, 2**dim)`` array
    of consecutive outputs, with ``rows = max(1, _BLOCK_FLOATS >> dim)``
    (fewer in the last block).  Row ``o`` of the stacked blocks has entry
    ``p`` equal to ``evaluate(field, s)[o]`` to rounding, for the input
    ``s`` that is +1 exactly at the coordinates whose bits ``p`` sets.
    Each block is freshly allocated, so callers may overwrite it; memory
    is a few blocks, whatever ``n_out``.
    """
    spec = field.spec
    total = 1 << spec.dim
    rows = min(spec.n_out, max(1, _BLOCK_FLOATS >> spec.dim))
    for lo in range(0, spec.n_out, rows):
        block = field.coeffs[lo : lo + rows]
        values = np.zeros((len(block), total))
        values[:, masks] = block
        values = _walsh(values, spec.dim)
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
    coefficients are the ``i``-th run of ``spec.coeff_count`` draws, each
    times its set's ``sqrt(count)``.
    ``seed`` defaults to ``spec.seed``; when both are given, ``seed`` wins.
    """
    if spec.n_out < 2:
        raise ValueError("covariance_probe needs n_out >= 2 for the cross term")
    if n_fields < 2:
        raise ValueError(f"n_fields must be >= 2, got {n_fields}")
    _check_budget(spec)
    s1 = _check_bipolar(s1, spec.dim)
    probes = [_check_bipolar(s2, spec.dim) for s2 in s2_list]
    products = 2 * len(probes) * n_fields
    if products > DEFAULT_COEFF_BUDGET:
        raise BudgetError(
            f"covariance probe would hold {products} products "
            f"(n_fields={n_fields}, {len(probes)} probes); "
            f"budget is {DEFAULT_COEFF_BUDGET}"
        )
    # row r of `chars` is every set's character at input r (s1 first, the
    # probes after) times sqrt(count), so a row of normals dotted with it
    # is that output at input r
    idx, root, _ = _support(spec.dim, spec.order)
    chars = np.prod(np.vstack([s1] + probes)[:, idx], axis=2) * root
    scale = math.sqrt(spec.power / spec.dim**spec.order)
    rng = np.random.default_rng(int(spec.seed if seed is None else seed))
    chunk = max(1, _CHUNK_FLOATS // spec.coeff_count)
    same = np.empty((len(probes), n_fields))
    cross = np.empty((len(probes), n_fields))
    for lo in range(0, n_fields, chunk):
        m = min(chunk, n_fields - lo)
        coeffs = rng.standard_normal((m * spec.n_out, len(root)))
        v = (coeffs @ chars.T).reshape(m, spec.n_out, -1)
        v *= scale
        same[:, lo : lo + m] = (v[:, 0, :1] * v[:, 0, 1:]).T
        cross[:, lo : lo + m] = (v[:, 0, :1] * v[:, 1, 1:]).T

    root_n = math.sqrt(n_fields)
    mean_se = lambda x: (float(x.mean()), float(x.std(ddof=1) / root_n))
    return [mean_se(a) + mean_se(b) for a, b in zip(same, cross)]
