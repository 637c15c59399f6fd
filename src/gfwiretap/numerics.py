"""Numerics kernel: standard-normal expectations by quadrature, bracketed
one-dimensional minimization, and transition bisection.

Quadrature integrands and minimization objectives are array-shaped: an
integrand may return a stack of node values, and an objective is evaluated
on row blocks of its grid.

Everything here is a pure function of its arguments and safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import roots_hermitenorm

from .errors import BracketError, NumericalError

__all__ = [
    "DEFAULT_QUADRATURE_ORDER",
    "QuadratureRule",
    "gauss_hermite_rule",
    "default_rule",
    "gauss_expectation",
    "log_cosh",
    "bisect_transition",
]

#: Default number of quadrature nodes.  The log-cosh / tanh integrands used by
#: the overlap solver have complex singularities that approach the real axis
#: as the effective SNR grows; 400 nodes keep the absolute error below ~4e-12
#: across the SNR range exercised here (checked against doubled-order rules).
DEFAULT_QUADRATURE_ORDER = 400

#: Nodes whose normalised weight is at or below this are dropped from every
#: rule: their share of an expectation of the solver's integrands is below
#: the rounding of the sum, and they are ~64% of the default rule's nodes.
NODE_WEIGHT_FLOOR = 1e-30

#: Grid points per objective call in ``_minimize_with_diagnostics``.  With the
#: default rule's 144 nodes a block of the energy is 113 x 144 ~ 2**14 floats
#: (128 KiB), so its intermediates stay in cache; the whole 1001-point grid
#: at once is over twice as slow.
GRID_BLOCK_ROWS = 113

_LOG2 = math.log(2.0)
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

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


@functools.lru_cache(maxsize=32)
def gauss_hermite_rule(order: int = DEFAULT_QUADRATURE_ORDER) -> QuadratureRule:
    """Probabilists' Gauss-Hermite rule normalized for a N(0,1) expectation.

    Nodes whose normalised weight is at most ``NODE_WEIGHT_FLOOR`` (1e-30)
    are dropped, including those whose weights underflow to zero above
    order ~320.  The retained weights stay strictly positive, the node set
    stays symmetric, and at the default order 144 of 396 nodes remain, which
    is what every quadrature and every row of the solver's energy grid costs.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    nodes, weights = roots_hermitenorm(order)
    weights = weights / weights.sum()
    keep = weights > NODE_WEIGHT_FLOOR
    return QuadratureRule(order=order, nodes=nodes[keep], weights=weights[keep])


@functools.lru_cache(maxsize=1)
def default_rule() -> QuadratureRule:
    """Default rule, self-validated once against a doubled-order rule.

    The probe integrand ``log cosh(10 + sqrt(10) w)`` sits at the SNR where
    the quadrature error of this family peaks.
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


def log_cosh(x):
    """``log(cosh(x))`` computed as ``|x| + log1p(exp(-2|x|)) - log 2``.

    Stable for |x| up to ~1e6 and beyond (no overflow of cosh).
    """
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - _LOG2


def gauss_expectation(
    g: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule
) -> float | np.ndarray:
    """Approximate ``E[g(w)]`` for ``w ~ N(0, 1)`` as ``sum_i w_i g(x_i)``.

    ``g`` is called once on the whole node array and must return one value
    per node along its last axis: shape ``(n_nodes,)`` gives a float, shape
    ``(..., n_nodes)`` an array of shape ``(...)``, one expectation per row.
    Deterministic for a fixed rule.
    """
    vals = np.asarray(g(rule.nodes), dtype=float)
    if vals.shape[-1:] != rule.nodes.shape:
        raise ValueError(
            f"integrand must return one value per node on its last axis: "
            f"expected shape (..., {rule.nodes.size}), got {vals.shape}"
        )
    finite = np.isfinite(vals)
    if not finite.all():
        bad = rule.nodes[np.argwhere(~finite)[0][-1]]
        raise NumericalError(
            f"integrand is non-finite at quadrature node {float(bad)!r}"
        )
    # einsum sums each row in the same order whatever the leading shape, so a
    # row of a stack gives bit-for-bit the value of the same row on its own.
    # A matmul does not (BLAS gemv and dot order their sums differently),
    # which integrands with cancellation, like ``e - E[log cosh]`` at large
    # ``e``, magnify to ~1e-13.
    out = np.einsum("...i,i->...", vals, rule.weights)
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


def _minimize_with_diagnostics(f, lo, hi, grid_step, refine_tol):
    """Grid-then-golden minimization returning interior candidates as well.

    ``f`` takes an array of abscissae and returns one value each; the grid
    goes to it in blocks of ``GRID_BLOCK_ROWS`` points.  Golden refinement
    calls ``f`` on single floats.

    Returns ``(argmin, min_value, interior, f_lo, f_hi)`` where ``interior``
    is a tuple of refined ``(x, f(x))`` pairs, one per interior grid point
    that is no higher than both neighbours.  Endpoints always compete as raw
    candidates.  Ties within ``TIE_TOL`` resolve to the largest argmin.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if grid_step <= 0.0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    if refine_tol <= 0.0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    n_cells = max(1, int(math.ceil((hi - lo) / grid_step - 1e-12)))
    grid = np.linspace(lo, hi, n_cells + 1)
    vals = np.concatenate(
        [np.asarray(f(grid[i : i + GRID_BLOCK_ROWS]), dtype=float).reshape(-1)
         for i in range(0, grid.size, GRID_BLOCK_ROWS)]
    )
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
        _golden_section(f, float(grid[i - 1]), float(grid[i + 1]), refine_tol)
        for i in minima
    )

    f_lo, f_hi = float(vals[0]), float(vals[-1])
    candidates = ((float(grid[0]), f_lo), (float(grid[-1]), f_hi)) + interior
    best_val = min(v for _, v in candidates)
    arg = max(x for x, v in candidates if v - best_val <= TIE_TOL)
    val = next(v for x, v in candidates if x == arg)
    return arg, val, interior, f_lo, f_hi


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
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    flag_lo = bool(indicator(lo))
    if bool(indicator(hi)) == flag_lo:
        raise BracketError(
            f"indicator does not flip across [{lo}, {hi}] (both {flag_lo})"
        )
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if bool(indicator(mid)) == flag_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
