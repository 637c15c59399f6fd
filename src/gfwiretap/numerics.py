"""Numerics kernel: standard-normal expectations by quadrature, Chebyshev
interpolation, bracketed one-dimensional minimization, Brent root finding,
and transition bisection.

The one quadrature rule is the trapezoidal rule on a uniform grid, weighted
by the normal density: 289 nodes ``k / 16`` on ``|w| <= 9``.  On the scalar
channel's integrands it is within 8e-16 of 50-digit integrals, and
``default_rule`` checks it once against the half-step rule.

Quadrature integrands and minimization objectives are array-shaped: an
integrand may return a stack of node values, and an objective is evaluated
on its whole grid in one call.  A Chebyshev series is fitted from its
values at the Chebyshev points by their discrete orthogonality, and
summed by one routine for a float or an array of points.

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
    "QuadratureRule",
    "trapezoid_rule",
    "default_rule",
    "gauss_expectation",
    "log_cosh",
    "chebyshev_points",
    "chebyshev_coefficients",
    "chebyshev_series",
    "bisect_transition",
]

#: The rule of :func:`default_rule`: nodes ``k / 16`` on ``|w| <= 9``, 289
#: of them.  The scalar channel's log cosh and tanh integrands are analytic
#: in a strip about the real axis that narrows as the SNR grows, and the
#: step's error peaks near ``e = 15.5``; the density beyond ``|w| = 9`` is
#: below 1e-18.  ``replica`` fits its scalar-channel table on this rule.
RULE_STEP = 1.0 / 16.0
RULE_HALF_WIDTH = 9.0

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
    nodes : ndarray
        Abscissae, symmetric about zero.
    weights : ndarray
        Positive weights summing to one.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
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


def trapezoid_rule(step: float, half_width: float) -> QuadratureRule:
    """Trapezoidal rule for a N(0,1) expectation: nodes ``step * k`` on
    ``|w| <= half_width``, weighted by the normal density there, normalised.

    For an integrand analytic in a strip about the real axis the error falls
    exponentially in ``1 / step`` (Trefethen & Weideman, SIAM Review 2014),
    and the cut at ``half_width`` drops the density's tail beyond it.
    """
    if not (step > 0.0 and 0.0 <= half_width < math.inf):
        raise ValueError(
            f"need step > 0 and a finite half_width >= 0, got {step}, {half_width}"
        )
    n = math.floor(half_width / step)
    nodes = step * np.arange(-n, n + 1)
    weights = np.exp(-0.5 * nodes * nodes)
    return QuadratureRule(nodes=nodes, weights=weights / weights.sum())


@functools.lru_cache(maxsize=1)
def default_rule() -> QuadratureRule:
    """The rule of ``RULE_STEP`` and ``RULE_HALF_WIDTH``, self-checked once.

    The check compares it with the half-step rule on ``log cosh`` and
    ``tanh`` of ``15.5 + sqrt(15.5) w``, where the step's error peaks, and
    fails above 1e-13: the shipped step drifts 1.1e-14 (rounding), step 1/8
    1.2e-12 on tanh.
    """
    rule = trapezoid_rule(RULE_STEP, RULE_HALF_WIDTH)
    halved = trapezoid_rule(0.5 * RULE_STEP, RULE_HALF_WIDTH)
    shift, scale = 15.5, math.sqrt(15.5)
    for g in (log_cosh, np.tanh):
        probe = lambda w: g(shift + scale * w)
        drift = abs(gauss_expectation(probe, rule) - gauss_expectation(probe, halved))
        if drift > 1e-13:
            raise NumericalError(
                f"default quadrature failed its startup convergence check: "
                f"halving the step moved the {g.__name__} probe by {drift:.3e}"
            )
    return rule


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


def chebyshev_points(lo, hi, degree: int) -> np.ndarray:
    """The ``degree + 1`` Chebyshev points of the first kind on ``[lo, hi]``.

    Point ``j`` is ``mid + half * cos(pi (j + 1/2) / (degree + 1))``, so they
    descend and neither end is among them.  ``lo`` and ``hi`` may be arrays
    of shape ``(..., 1)``, giving one row of points per interval.
    """
    theta = math.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


def chebyshev_coefficients(values) -> np.ndarray:
    """Coefficients of the series through values at the Chebyshev points.

    ``values[..., j]`` is the function at point ``j`` of
    :func:`chebyshev_points`; the ``n`` values give the degree ``n - 1``
    interpolant, whose coefficient ``c_k`` the points' discrete
    orthogonality gives directly: ``(2 / n) sum_j values[j] cos(k theta_j)``,
    halved at ``k = 0``.  ``k theta_j`` is reduced modulo ``2 pi`` in
    integers first; the cosine of the float product ``k * theta_j`` would
    be off by up to ``k pi`` ulps, ~1e-15 in every coefficient.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    # k theta_j = pi k (2j + 1) / (2n)
    turns = np.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n)
    coefs = values @ np.cos(turns * (math.pi / (2 * n))) * (2.0 / n)
    coefs[..., 0] *= 0.5
    return coefs


def chebyshev_series(coefs, t):
    """``sum_k coefs[k] T_k(t)`` by Clenshaw's recurrence.

    ``coefs`` is indexed by ``k``: a sequence of floats with a float ``t``
    sums in plain Python arithmetic, and rows of arrays that broadcast
    against an array ``t`` give an array.  Both take the same operations in
    the same order, so a float agrees bit for bit with its entry in an array.
    """
    t2 = t + t
    b1 = b2 = 0.0
    for c in coefs[:0:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
    return coefs[0] + t * b1 - b2


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
    """``(x, f(x), rooted)`` at the minimum of ``f`` inside the grid bracket
    ``[a, b]``.

    When ``stationary`` turns strictly from negative at ``a`` to positive at
    ``b``, ``x`` is its Brent root to ``tol`` and ``rooted`` is true;
    otherwise golden section on ``f`` finds it.
    """
    if stationary is not None:
        g_a, g_b = float(stationary(a)), float(stationary(b))
        if g_a < 0.0 < g_b:
            x = _brent_root(stationary, a, b, tol, fa=g_a, fb=g_b)
            return x, float(f(x)), True
    return *_golden_section(f, a, b, tol), False


@functools.lru_cache(maxsize=8)
def _grid(lo: float, hi: float, points: int) -> np.ndarray:
    """``np.linspace(lo, hi, points)``, cached and read-only."""
    grid = np.linspace(lo, hi, points)
    grid.setflags(write=False)
    return grid


def _minimize_with_diagnostics(f, lo, hi, grid_step, refine_tol, stationary=None):
    """Grid-then-refine minimization returning interior candidates as well.

    ``f`` takes an array of abscissae and returns one value each; the whole
    grid goes to it in one call, as a cached read-only array.  Each interior
    grid point no higher than both neighbours is refined on the bracket of
    its two neighbours.  ``stationary``, if given, is a scalar function that is
    negative where ``f`` falls and positive where it rises (a positive
    multiple of ``f'``); where it changes sign strictly from negative to
    positive across the bracket, the minimum is its Brent root, with one
    more ``f`` call there.  Everywhere else, golden section refines, with
    scalar ``f`` calls; when ``stationary`` is given, such a minimum may be
    a stretch of ``f`` flat to rounding, so it competes only when it is
    more than ``TIE_TOL`` below both endpoints.

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
    grid = _grid(lo, hi, n_cells + 1)
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
    refined = [
        _refine_minimum(
            f, stationary, float(grid[i - 1]), float(grid[i + 1]), refine_tol
        )
        for i in minima
    ]
    interior = tuple((x, v) for x, v, _ in refined)

    f_lo, f_hi = float(vals[0]), float(vals[-1])
    floor = min(f_lo, f_hi) - TIE_TOL
    candidates = ((float(grid[0]), f_lo), (float(grid[-1]), f_hi)) + tuple(
        (x, v) for x, v, rooted in refined if rooted or stationary is None or v < floor
    )
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
