"""Numerics kernel: standard-normal expectations by quadrature, bracketed
one-dimensional minimization, Brent root finding, and transition bisection.

The Gauss-Hermite rules are built here with numpy alone: Tricomi's
asymptotic formula places the nodes and Newton's method on the Hermite-
function recurrence polishes them, so no scipy module is loaded.

Quadrature integrands and minimization objectives are array-shaped: an
integrand may return a stack of node values, and an objective is evaluated
on its whole grid in one call.

Everything here is a pure function of its arguments and safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, NumericalError

__all__ = [
    "DEFAULT_QUADRATURE_ORDER",
    "SNR_BANDS",
    "QuadratureRule",
    "QuadratureBands",
    "gauss_hermite_rule",
    "default_rule",
    "default_bands",
    "gauss_expectation",
    "log_cosh",
    "bisect_transition",
]

#: Default number of quadrature nodes.  The log-cosh / tanh integrands used by
#: the overlap solver have complex singularities that approach the real axis
#: as the effective SNR grows.  Against the order-800 rule on e in [0, 60],
#: this order is off by at most 7.5e-12 on ``E[log cosh(e + sqrt(e) w)]``
#: (near e = 15.8) and 7.5e-11 on ``E[tanh(e + sqrt(e) w)]`` (near
#: e = 15.5); order 800 is itself within 1.4e-13 of order 1600.
DEFAULT_QUADRATURE_ORDER = 400

#: The overlap solver's quadrature by effective SNR ``e``: ``(cut, order)``
#: pairs, ascending, each order serving the SNRs above the previous cut up
#: to and including its own; above the last cut the default rule serves.
#: Small ``e`` needs few nodes: the integrands' branch points lie at
#: distance ``pi / (2 sqrt(e))`` from the real axis, and Gauss-Hermite error
#: falls geometrically in that distance (Trefethen, SIAM Rev. 2008).  A test
#: certifies each order against the unpruned order-400 rule on log cosh and
#: tanh to 1e-14 (relative above 1) across its band; the orders hold on a
#: 5e-4 grid up to SNRs 0.135, 0.50, 0.96, 1.45 and 2.42, ~10% past their
#: cuts.  The table minimises a cost of ~7 ns per integrand value plus
#: ~18 us per quadrature block (2-vCPU Xeon, numpy 2.4) over the energy
#: grids of the ``collapse_scan`` benchmark.
SNR_BANDS = (
    (0.12, 24),
    (0.45, 64),
    (0.85, 112),
    (1.3, 160),
    (2.15, 260),
)

#: Nodes whose normalised weight is at or below this are dropped from every
#: rule: their share of an expectation of the solver's integrands is below
#: the rounding of the sum, and they are ~64% of the default rule's nodes.
#: The node count is what each row of effective SNR costs in its band.
NODE_WEIGHT_FLOOR = 1e-30

#: Newton sweeps that polish the Gauss-Hermite nodes stop once every step is
#: below this share of its node (or of 1 below |x| = 1); from Tricomi's
#: starting points that takes at most four sweeps at orders 1 to 4000.
_NEWTON_RTOL = 1e-14
_NEWTON_MAX_SWEEPS = 20

_LOG2 = math.log(2.0)
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Relative part of ``_brent_root``'s tolerance: four machine epsilons.
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAX_ITER = 100

#: Tolerance for treating two candidate minima as a tie (coexistence).
TIE_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights approximating ``E[g(w)]`` for ``w ~ N(0, 1)``.

    Attributes
    ----------
    order : int
        Nominal polynomial-exactness order of the rule (a Gauss rule of this
        order integrates polynomials of degree <= 2*order - 1 exactly).
    nodes : ndarray
        Abscissae, symmetric about zero.
    weights : ndarray
        Positive weights summing to one.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(weights > 0.0):
            raise ValueError("all quadrature weights must be strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1 within 1e-12")
        if not np.allclose(nodes, -nodes[::-1], atol=1e-12, rtol=0.0):
            raise ValueError("quadrature nodes must be symmetric about 0")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class QuadratureBands:
    """Gauss-Hermite rules by band of effective SNR.

    ``rules[i]`` serves the SNRs ``e`` with ``cuts[i-1] < e <= cuts[i]``; the
    first rule serves everything up to ``cuts[0]`` and the last everything
    above ``cuts[-1]``.  A plain :class:`QuadratureRule` is the one-band
    table ``QuadratureBands((), (rule,))``.

    Attributes
    ----------
    cuts : tuple of float
        Strictly ascending cut points.
    rules : tuple of QuadratureRule
        One rule more than there are cut points.
    """

    cuts: tuple[float, ...]
    rules: tuple[QuadratureRule, ...]

    def __post_init__(self):
        if len(self.rules) != len(self.cuts) + 1:
            raise ValueError(
                f"need one rule more than cut points, got {len(self.rules)} "
                f"rules for {len(self.cuts)} cuts"
            )
        if any(not a < b for a, b in zip(self.cuts, self.cuts[1:])):
            raise ValueError(f"cut points must ascend strictly, got {self.cuts}")

    @classmethod
    def of(cls, quadrature: QuadratureRule | QuadratureBands) -> QuadratureBands:
        """``quadrature`` as a band table; a rule becomes one band."""
        if isinstance(quadrature, QuadratureBands):
            return quadrature
        return cls((), (quadrature,))


def _hermite_functions(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(q_n(x), q_{n-1}(x))`` of the Hermite functions
    ``q_k = He_k(x) exp(-x**2 / 4) / sqrt(k!)``.

    The recurrence ``q_{k+1} = (x q_k - sqrt(k) q_{k-1}) / sqrt(k + 1)`` from
    ``q_0 = exp(-x**2 / 4)`` stays bounded, so it cannot overflow; far in the
    tail it underflows to zero instead.
    """
    k = np.arange(n)
    a = np.sqrt(k / (k + 1.0)).tolist()
    b = (1.0 / np.sqrt(k + 1.0)).tolist()
    q_prev, q = np.zeros_like(x), np.exp(-0.25 * x * x)
    for j in range(n):
        q_prev, q = q, b[j] * x * q - a[j] * q_prev
    return q, q_prev


def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and unnormalised weights of the probabilists'
    Gauss-Hermite rule of ``order``, every node kept.

    Initial positive nodes come from Tricomi's formula (Townsend, Trogdon &
    Olver, IMA J. Numer. Anal. 2016, lemma 3.1), Newton sweeps on
    ``q_order`` polish them (``q_order' = sqrt(order) q_{order-1}`` at a
    root), and each weight is ``exp(-x**2 / 2) / (order q_{order-1}(x)**2)``.
    Both halves are mirrored from the nonnegative one; a tail node whose
    ``q_{order-1}`` underflows to zero stops moving and gets weight 0.
    """
    n, m = order, order // 2
    # tau_k solves tau - sin(tau) = c_k, by Newton's method from pi/2
    nu = 4.0 * m + 2.0 * (n % 2) + 1.0
    c = (4.0 * m - 4.0 * np.arange(1, m + 1) + 3.0) * math.pi / nu
    tau = np.full(m, 0.5 * math.pi)
    for _ in range(_NEWTON_MAX_SWEEPS):
        step = (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
        tau -= step
        if np.all(np.abs(step) <= _NEWTON_RTOL * tau):
            break
    sigma = np.cos(0.5 * tau) ** 2
    x_sq = nu * sigma - (
        5.0 / (4.0 * (1.0 - sigma) ** 2) - 1.0 / (1.0 - sigma) - 0.25
    ) / (3.0 * nu)
    # the formula is for the physicists' H_n; He_n's roots are sqrt(2) times
    x = np.sqrt(2.0 * x_sq)
    if n % 2:
        x = np.concatenate(([0.0], x))

    root_n = math.sqrt(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_SWEEPS):
            q, q_prev = _hermite_functions(x, n)
            step = np.where(q_prev != 0.0, q / (root_n * q_prev), 0.0)
            x = x - step
            if np.all(np.abs(step) <= _NEWTON_RTOL * np.maximum(1.0, x)):
                break
        _, q_prev = _hermite_functions(x, n)
        w = np.where(q_prev != 0.0, np.exp(-0.5 * x * x) / (n * q_prev * q_prev), 0.0)
    lo = n % 2  # an odd order's zero node is not mirrored
    return (
        np.concatenate((-x[::-1], x[lo:])),
        np.concatenate((w[::-1], w[lo:])),
    )


@functools.lru_cache(maxsize=32)
def gauss_hermite_rule(order: int = DEFAULT_QUADRATURE_ORDER) -> QuadratureRule:
    """Probabilists' Gauss-Hermite rule normalized for a N(0,1) expectation.

    Nodes whose normalised weight is at most ``NODE_WEIGHT_FLOOR`` (1e-30)
    are dropped, including the far-tail nodes whose Hermite functions
    underflow and whose weights are therefore exactly zero.  The retained
    weights stay strictly positive, the node set stays symmetric, and at the
    default order 144 of 400 nodes remain.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    nodes, weights = _hermite_rule(order)
    weights = weights / weights.sum()
    keep = weights > NODE_WEIGHT_FLOOR
    return QuadratureRule(order=order, nodes=nodes[keep], weights=weights[keep])


@functools.lru_cache(maxsize=1)
def default_rule() -> QuadratureRule:
    """Default rule, self-validated once against a doubled-order rule.

    The check probes one integrand at one SNR, ``log cosh(10 + sqrt(10) w)``,
    to 1e-10; it does not probe tanh, whose error is ~10 times larger, nor
    the SNRs near 15 where both errors peak (see
    ``DEFAULT_QUADRATURE_ORDER``).
    """
    rule = gauss_hermite_rule(DEFAULT_QUADRATURE_ORDER)
    doubled = gauss_hermite_rule(2 * DEFAULT_QUADRATURE_ORDER)
    probe = lambda w: log_cosh(10.0 + math.sqrt(10.0) * w)
    drift = abs(gauss_expectation(probe, rule) - gauss_expectation(probe, doubled))
    if drift > 1e-10:
        raise NumericalError(
            f"default quadrature failed its startup convergence check: "
            f"doubling the order moved the probe expectation by {drift:.3e}"
        )
    return rule


@functools.lru_cache(maxsize=1)
def default_bands() -> QuadratureBands:
    """The overlap solver's rules: ``SNR_BANDS``, then ``default_rule()``.

    Built on the first call (~20 ms for the band rules) and cached, like
    ``default_rule()``, whose self-check gates the table.
    """
    return QuadratureBands(
        cuts=tuple(cut for cut, _ in SNR_BANDS),
        rules=tuple(gauss_hermite_rule(order) for _, order in SNR_BANDS)
        + (default_rule(),),
    )


def log_cosh(x):
    """``log(cosh(x))`` computed as ``(|x| + log1p(exp(-2|x|))) - log 2``.

    Stable for |x| up to ~1e6 and beyond (no overflow of cosh).  Two fresh
    arrays hold ``|x|`` and the result, which every later step overwrites in
    place; ``x`` itself is never written.
    """
    ax = np.abs(x, out=np.empty(np.shape(x)))
    out = np.multiply(ax, -2.0, out=np.empty_like(ax))
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.add(ax, out, out=out)
    np.subtract(out, _LOG2, out=out)
    return out[()]


def gauss_expectation(
    g: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule
) -> float | np.ndarray:
    """Approximate ``E[g(w)]`` for ``w ~ N(0, 1)`` as ``sum_i w_i g(x_i)``.

    ``g`` is called once on the whole node array and must return one value
    per node along its last axis: shape ``(n_nodes,)`` gives a float, shape
    ``(..., n_nodes)`` an array of shape ``(...)``, one expectation per row.
    Deterministic for a fixed rule.

    Raises :class:`NumericalError` when an expectation is not finite: it
    names the node of the first non-finite integrand value, or says that
    the weighted sum of finite values overflowed (the weights sum to one, so
    that takes values within rounding of the largest float).  The weights
    are positive, so any non-finite value makes its row's sum non-finite,
    and only the sums are checked unless one fails.
    """
    vals = np.asarray(g(rule.nodes), dtype=float)
    if vals.shape[-1:] != rule.nodes.shape:
        raise ValueError(
            f"integrand must return one value per node on its last axis: "
            f"expected shape (..., {rule.nodes.size}), got {vals.shape}"
        )
    # einsum sums each row in the same order whatever the leading shape, so a
    # row of a stack gives bit-for-bit the value of the same row on its own.
    # A matmul does not (BLAS gemv and dot order their sums differently),
    # which integrands with cancellation, like ``e - E[log cosh]`` at large
    # ``e``, magnify to ~1e-13.
    out = np.einsum("...i,i->...", vals, rule.weights)
    if not np.isfinite(out).all():
        bad = np.argwhere(~np.isfinite(vals))
        if bad.size:
            raise NumericalError(
                f"integrand is non-finite at quadrature node "
                f"{float(rule.nodes[bad[0][-1]])!r}"
            )
        raise NumericalError("weighted sum of a finite integrand overflows")
    return float(out) if out.ndim == 0 else out


def _golden_section(f, a, b, tol):
    """Shrink [a, b] to width <= tol; return the best evaluated point.

    Both the surviving interior point and the final midpoint lie in the
    terminal bracket, so the returned abscissa is within tol of the true
    minimizer.
    """
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = float(f(c)), float(f(d))
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = float(f(d))
    best, f_best = (c, fc) if fc <= fd else (d, fd)
    mid = 0.5 * (a + b)
    f_mid = float(f(mid))
    return (mid, f_mid) if f_mid <= f_best else (best, f_best)


def _brent_root(f, a, b, xtol, fa=None, fb=None):
    """Root of ``f`` on ``[a, b]`` by Brent's method (Brent 1973, ch. 4).

    Requires ``f(a)`` and ``f(b)`` of opposite signs; either may be passed
    in as ``fa``/``fb`` when already known.  Each step takes an inverse
    quadratic (or secant) step when it stays well inside the bracket and
    shrinks it fast enough, and bisects otherwise, so the bracket always
    holds a sign change.  Returns the end with the smaller ``|f|`` once the
    bracket is narrower than ``xtol + _BRENT_RTOL * |x|``, or a point where
    ``f`` is exactly 0.
    """
    if not xtol > 0.0:
        raise ValueError(f"xtol must be positive, got {xtol}")
    fa = float(f(a)) if fa is None else fa
    fb = float(f(b)) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(f"f does not change sign on [{a}, {b}]: {fa!r}, {fb!r}")
    # x: best estimate; prev: the point before it; blk: the far end of the
    # bracket [x, blk] that holds the sign change; step, step_prev: the last
    # two steps taken
    prev, f_prev, x, fx = a, fa, b, fb
    blk = f_blk = step = step_prev = 0.0
    for _ in range(_BRENT_MAX_ITER):
        if f_prev != 0.0 and fx != 0.0 and (f_prev < 0.0) != (fx < 0.0):
            blk, f_blk = prev, f_prev
            step = step_prev = x - prev
        if abs(f_blk) < abs(fx):
            prev, x, blk = x, blk, x
            f_prev, fx, f_blk = fx, f_blk, fx
        delta = 0.5 * (xtol + _BRENT_RTOL * abs(x))
        half = 0.5 * (blk - x)
        if fx == 0.0 or abs(half) < delta:
            return x
        if abs(step_prev) > delta and abs(fx) < abs(f_prev):
            if prev == blk:  # secant
                trial = -fx * (x - prev) / (fx - f_prev)
            else:  # inverse quadratic interpolation
                d_prev = (f_prev - fx) / (prev - x)
                d_blk = (f_blk - fx) / (blk - x)
                trial = -fx * (f_blk * d_blk - f_prev * d_prev) / (
                    d_blk * d_prev * (f_blk - f_prev)
                )
            if 2.0 * abs(trial) < min(abs(step_prev), 3.0 * abs(half) - delta):
                step_prev, step = step, trial
            else:
                step_prev = step = half
        else:
            step_prev = step = half
        prev, f_prev = x, fx
        x += step if abs(step) > delta else math.copysign(delta, half)
        fx = float(f(x))
    raise NumericalError(
        f"Brent root finding did not converge in {_BRENT_MAX_ITER} steps on [{a}, {b}]"
    )


def _refine_minimum(f, stationary, a, b, tol):
    """``(x, f(x))`` at the minimum of ``f`` inside the grid bracket ``[a, b]``.

    When ``stationary`` turns strictly from negative at ``a`` to positive at
    ``b``, ``x`` is its Brent root to ``tol``; otherwise golden section on
    ``f`` finds it.
    """
    if stationary is not None:
        g_a, g_b = float(stationary(a)), float(stationary(b))
        if g_a < 0.0 < g_b:
            x = _brent_root(stationary, a, b, tol, fa=g_a, fb=g_b)
            return x, float(f(x))
    return _golden_section(f, a, b, tol)


def _minimize_with_diagnostics(f, lo, hi, grid_step, refine_tol, stationary=None):
    """Grid-then-refine minimization returning interior candidates as well.

    ``f`` takes an array of abscissae and returns one value each; the whole
    grid goes to it in one call.  Each interior grid point no higher than
    both neighbours is refined on the bracket of its two neighbours.
    ``stationary``, if given, is a scalar function that is
    negative where ``f`` falls and positive where it rises (a positive
    multiple of ``f'``); where it changes sign strictly from negative to
    positive across the bracket, the minimum is its Brent root, with one
    more ``f`` call there.  Everywhere else, golden section refines, with
    scalar ``f`` calls.

    Returns ``(argmin, min_value, interior, f_lo, f_hi)`` where ``interior``
    is a tuple of refined ``(x, f(x))`` pairs, one per interior grid minimum.
    Endpoints always compete as raw candidates.  Ties within ``TIE_TOL``
    resolve to the largest argmin.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not grid_step > 0.0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    if not refine_tol > 0.0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    n_cells = max(1, int(math.ceil((hi - lo) / grid_step - 1e-12)))
    grid = np.linspace(lo, hi, n_cells + 1)
    vals = np.asarray(f(grid), dtype=float).reshape(-1)
    if vals.shape != grid.shape:
        raise ValueError(
            f"objective must return one value per grid point: expected "
            f"{grid.size}, got {vals.size}"
        )
    if not np.all(np.isfinite(vals)):
        bad = grid[~np.isfinite(vals)][0]
        raise NumericalError(
            f"objective is non-finite at grid point {float(bad)!r}"
        )

    inner = vals[1:-1]
    minima = np.flatnonzero((inner <= vals[:-2]) & (inner <= vals[2:])) + 1
    interior = tuple(
        _refine_minimum(
            f, stationary, float(grid[i - 1]), float(grid[i + 1]), refine_tol
        )
        for i in minima
    )

    f_lo, f_hi = float(vals[0]), float(vals[-1])
    candidates = ((float(grid[0]), f_lo), (float(grid[-1]), f_hi)) + interior
    best_val = min(v for _, v in candidates)
    arg = max(x for x, v in candidates if v - best_val <= TIE_TOL)
    val = next(v for x, v in candidates if x == arg)
    return arg, val, interior, f_lo, f_hi


def _dyadic_bracket(
    flipped: Callable[[float], bool], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """The bracket of width <= ``tol`` that bisection of ``[lo, hi]`` ends on.

    Each step halves the bracket at its midpoint and keeps the lower half
    when ``flipped(mid)`` is true, the upper half otherwise.  Requires
    ``tol > 0``.  A ``tol`` below float resolution ends the halving at two
    adjacent floats, whose midpoint rounds to one of them.
    """
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if flipped(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def bisect_transition(
    indicator: Callable[[float], bool],
    lo: float,
    hi: float,
    tol: float,
) -> float:
    """Locate where a monotone boolean indicator flips on ``[lo, hi]``.

    Requires ``indicator(lo) != indicator(hi)``; shrinks the bracket to width
    <= ``tol`` and returns its midpoint.
    """
    if not lo < hi:
        raise BracketError(f"degenerate bracket [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    flag_lo = bool(indicator(lo))
    if bool(indicator(hi)) == flag_lo:
        raise BracketError(
            f"indicator does not flip across [{lo}, {hi}] (both {flag_lo})"
        )
    lo, hi = _dyadic_bracket(lambda x: bool(indicator(x)) != flag_lo, lo, hi, tol)
    return 0.5 * (lo + hi)
