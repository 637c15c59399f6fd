"""Numerics kernel: standard-normal expectations by quadrature, Chebyshev
interpolation, grid minimization refined at stationarity roots, Brent root
finding, and transition bisection.

The one quadrature rule is the trapezoidal rule on a uniform grid, weighted
by the normal density: 289 nodes ``k / 16`` on ``|w| <= 9``.  On the scalar
channel's integrands it is within 8e-16 of 50-digit integrals, and
``default_rule`` checks it once against the half-step rule.

Quadrature integrands and minimization objectives are array-shaped: an
integrand may return a stack of node values, and an objective is evaluated
on its whole grid, which the caller owns, in one call.  A grid minimum is
refined only at a root of the objective's stationarity function, never by
searching the objective's values.  A Chebyshev series is fitted from its
values at the Chebyshev points by their discrete orthogonality, and
summed by one routine for a float or an array of points.

Everything here is a pure function of its arguments and safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .channel import LOG2
from .errors import BracketError, NumericalError

__all__ = [
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

#: Relative part of ``_brent_root``'s tolerance: four machine epsilons.
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAX_ITER = 100

#: Tolerance for treating two candidate minima as a tie (coexistence): the
#: largest argmin among them wins.
TIE_TOL = 1e-12


def _trapezoid(step: float):
    """``(nodes, weights)`` of the trapezoidal rule for a N(0,1) expectation:
    nodes ``step * k`` on ``|w| <= RULE_HALF_WIDTH``, weighted by the normal
    density there and normalised.  On an integrand analytic in a strip about
    the real axis its error falls exponentially in ``1 / step`` (Trefethen &
    Weideman, SIAM Review 2014)."""
    n = math.floor(RULE_HALF_WIDTH / step)
    nodes = step * np.arange(-n, n + 1)
    weights = np.exp(-0.5 * nodes * nodes)
    return nodes, weights / weights.sum()


@functools.lru_cache(maxsize=1)
def default_rule():
    """The read-only ``(nodes, weights)`` of the rule of ``RULE_STEP``,
    checked once against the half-step rule on ``log cosh`` and ``tanh`` of
    ``15.5 + sqrt(15.5) w``, where the step's error peaks.  The check fails
    above 1e-13: the shipped step drifts 1.1e-14 (rounding), step 1/8
    1.2e-12 on tanh."""
    rule = _trapezoid(RULE_STEP)
    halved = _trapezoid(0.5 * RULE_STEP)
    shift, scale = 15.5, math.sqrt(15.5)
    for g in (log_cosh, np.tanh):
        probe = lambda w: g(shift + scale * w)
        drift = abs(gauss_expectation(probe, rule) - gauss_expectation(probe, halved))
        if drift > 1e-13:
            raise NumericalError(
                f"default quadrature failed its startup convergence check: "
                f"halving the step moved the {g.__name__} probe by {drift:.3e}"
            )
    for a in rule:
        a.setflags(write=False)
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
    np.subtract(out, LOG2, out=out)
    return out[()]


def gauss_expectation(g, rule):
    """``E[g(w)]`` for ``w ~ N(0, 1)`` as ``sum_i w_i g(x_i)`` on the
    ``(nodes, weights)`` pair ``rule``.

    ``g`` is called once on the whole node array and returns one value per
    node along its last axis: shape ``(n_nodes,)`` gives a float, shape
    ``(..., n_nodes)`` an array of shape ``(...)``, one expectation per row.

    Raises :class:`NumericalError` when an expectation is not finite: it
    names the node of the first non-finite integrand value, or says that
    the weighted sum of finite values overflowed (the weights sum to one, so
    that takes values within rounding of the largest float).  The weights
    are positive, so only the sums are checked unless one fails.
    """
    nodes, weights = rule
    vals = np.asarray(g(nodes), dtype=float)
    # einsum sums each row in the same order whatever the leading shape, so a
    # row of a stack equals the same row alone bit for bit.  A matmul does
    # not (BLAS gemv and dot order their sums differently), and cancellation,
    # as in ``e - E[log cosh]`` at large ``e``, magnifies that to ~1e-13.
    out = np.einsum("...i,i->...", vals, weights)
    if not np.isfinite(out).all():
        bad = np.argwhere(~np.isfinite(vals))
        if bad.size:
            raise NumericalError(
                f"integrand is non-finite at quadrature node "
                f"{float(nodes[bad[0][-1]])!r}"
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
    The recurrence starts from the last coefficient, the value its first
    step would give it, ``c + t2 * 0 - 0``.
    """
    t2 = t + t
    b1, b2 = (coefs[-1], 0.0) if len(coefs) > 1 else (0.0, 0.0)
    for c in coefs[-2:0:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
    return coefs[0] + t * b1 - b2


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


def _stationary_root(stationary, a, m, b, tol):
    """The Brent root, to ``tol``, of ``stationary`` on the first of
    ``[a, b]``, ``[m, b]`` and ``[a, m]`` across which it turns strictly
    from negative to positive, or None when it turns across none of them.
    ``stationary(m)`` is computed only when ``[a, b]`` fails."""
    g_a, g_b = float(stationary(a)), float(stationary(b))
    if g_a < 0.0 < g_b:
        return _brent_root(stationary, a, b, tol, fa=g_a, fb=g_b)
    g_m = float(stationary(m))
    if g_m < 0.0 < g_b:
        return _brent_root(stationary, m, b, tol, fa=g_m, fb=g_b)
    if g_a < 0.0 < g_m:
        return _brent_root(stationary, a, m, tol, fa=g_a, fb=g_m)
    return None


def _minimize_with_diagnostics(f, stationary, grid, refine_tol):
    """Grid-then-root minimization returning interior candidates as well.

    ``f`` takes an array of abscissae and returns one value each; the whole
    ``grid``, an increasing 1-d array, goes to it in one call.
    ``stationary`` is a scalar function that is negative where ``f`` falls
    and positive where it rises (a positive multiple of ``f'``).  Each
    interior grid point ``i`` no higher than both neighbours is refined at
    the root of ``stationary`` on the first of its brackets
    ``[i - 1, i + 1]``, ``[i, i + 1]`` and ``[i - 1, i]`` across which it
    turns strictly from negative to positive, with one more ``f`` call
    there.  A grid minimum with no such turn is a stretch of ``f`` flat to
    rounding, and is dropped.

    Returns ``(argmin, min_value, interior, f_lo, f_hi)`` where ``interior``
    is a tuple of refined ``(x, f(x))`` pairs, one per refined grid minimum.
    Endpoints always compete as raw candidates.  Ties within ``TIE_TOL``
    resolve to the largest argmin.
    """
    if not refine_tol > 0.0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
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
    roots = (
        _stationary_root(stationary, *grid[i - 1 : i + 2].tolist(), refine_tol)
        for i in minima
    )
    interior = tuple((x, float(f(x))) for x in roots if x is not None)

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
