"""Decoupled-channel quantities and the energy minimization that predicts the
asymptotic behavior of the exact Bayesian decoder.

A bipolar source of rate ``rate`` (input symbols per channel use) encoded
through a random field with covariance ``power * u**order`` and observed in
Gaussian noise of variance ``sigma_sq`` decouples, in the large-system limit,
into a scalar channel whose effective SNR is controlled by an overlap
parameter ``m`` in [0, 1].  Minimizing the energy function over ``m`` yields
the limiting overlap ``m*`` between the source and its posterior mean, and
the limiting information rate.

The ``rate`` argument is generic: callers pass K/N for plain inference,
(K + K_tilde)/N for end-to-end decoding of the keyed scheme, or K_tilde/N for
the genie-aided eavesdropper analysis.  This module knows nothing about keys
or bins.

The decoupled channel's mutual information ``I(e)`` and fixed-point map
``F(e)`` are fixed functions of the effective SNR ``e`` alone.  They are
tabulated once per process, at first use: Chebyshev series of degree
``CHANNEL_DEGREE`` on the pieces cut at ``CHANNEL_CUTS`` interpolate the
quadrature on ``numerics.default_rule()``'s ``(nodes, weights)`` (step 1/16
on ``|w| <= 9``, self-checked against the half-step rule), and are checked
against it between their interpolation points.  Against 50-digit
integrals the table is within 1.1e-15 (relative above 1) on ``I`` and
6.7e-16 on ``F`` at its piece ends and where the rule's error peaks.
Above the last cut it holds ``I = log 2`` and ``F = 1``, the floats the
true values round to.  Each piece's centre, scale and coefficients are
packed in one row, so an array of SNRs reads its pieces with one gather.
A float SNR takes the same piece and the same operations as its entry in
an array, so it gets the same value bit for bit.

``energy`` and ``fixed_point_map`` accept a float or an array of overlaps
``m`` through one code path: a float gives a Python float, an array gives an
array of the same shape.  The solver evaluates the energy on its whole grid
in one call this way.  It works at one resolution: the grid is the
read-only module constant ``_GRID``, ``GRID_STEP`` apart, and roots are
refined to ``REFINE_TOL``.  On that grid only ``I`` depends on the rate:
``phi``, ``phi'``, the residual power, ``C_D`` and ``(1 - m) C_D'`` are
cached per ``(sigma_sq, power, order)``, read-only, so a rate scan forms
them once.

All operations are pure apart from the table's one-time build and the
cache of grid terms, which holds only values that any call would compute
alike; rate scans may run concurrently.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .channel import LOG2, _require_order, _require_positive
from .errors import BracketError, NumericalError
from .numerics import (
    TIE_TOL,
    _brent_root,
    _dyadic_bracket,
    _minimize_with_diagnostics,
    bisect_transition,
    chebyshev_coefficients,
    chebyshev_points,
    chebyshev_series,
    default_rule,
    gauss_expectation,
    log_cosh,
)

__all__ = [
    "ReplicaConfig",
    "ReplicaSolution",
    "make_config",
    "energy",
    "fixed_point_map",
    "solve_overlap",
    "scan_rates",
    "locate_critical_rate",
]

#: Overlaps this close to 0 or 1 are classified as the endpoint regimes.
#: Classification only; raw minimizers are always reported.
REGIME_CLAMP = 1e-9

#: Spacing of the solver's energy grid on [0, 1] (1001 points).
GRID_STEP = 1e-3
#: The solver's energy grid, read-only.
_GRID = np.linspace(0.0, 1.0, round(1.0 / GRID_STEP) + 1)
_GRID.setflags(write=False)
#: Tolerance to which an interior minimum is refined.
REFINE_TOL = 1e-10
#: Upper ends of the pieces the scalar-channel series are fitted on: 224
#: evenly spaced in ``sqrt(e)`` up to ``e = 80``, so they narrow towards
#: ``e = 0``, where ``I`` and ``F`` are smooth but not analytic (the first
#: piece ends at 0.0016).  Above 80, ``log 2 - I`` and ``1 - F`` are below
#: 6e-19, under half an ulp of ``log 2`` and of 1.
CHANNEL_CUTS = tuple(80.0 * (k / 224) ** 2 for k in range(1, 225))
#: Degree of the Chebyshev series fitted on each piece.
CHANNEL_DEGREE = 7
#: Largest error, relative above 1, that the fitted series may show against
#: the rule they are fitted on, midway between their fitting points, before
#: the build fails; the shipped fit's worst such error is 1.35e-15.
CHANNEL_TOL = 1e-14


@dataclass(frozen=True)
class ReplicaConfig:
    """Parameters of one decoupled-setting evaluation.

    ``rate`` is the number of input symbols per channel use, ``order`` the
    exponent of the covariance function ``power * u**order``.  The solver's
    resolution is fixed: ``GRID_STEP`` and ``REFINE_TOL``.
    """

    rate: float
    sigma_sq: float
    power: float
    order: int

    def __post_init__(self):
        _require_positive(rate=self.rate, sigma_sq=self.sigma_sq, power=self.power)
        _require_order(self.order)


def make_config(
    rate: float,
    sigma_sq: float = 0.1,
    power: float = 1.0,
    order: int = 3,
) -> ReplicaConfig:
    """ReplicaConfig with the package's default parameters."""
    return ReplicaConfig(rate=rate, sigma_sq=sigma_sq, power=power, order=order)


@dataclass(frozen=True, slots=True)
class ReplicaSolution:
    """Minimizer of the energy function and its diagnostics.

    ``info_rate`` equals the energy at ``m_star`` (nats per channel use).
    ``fixed_point_residual`` is ``|m* - E_w[tanh(E(m*) + sqrt(E(m*)) w)]|``,
    the stationarity defect; it is only meaningful for interior minimizers.
    Every interior minimum is refined at a root of ``m - F(m)``, so its
    residual is at most ~2.3e-11 (over lambda 1-6 and 8, sigma^2
    0.01/0.03/0.1/0.3/1/3, power 0.5/1/2 and rates 0.05-7.95 in steps of
    0.1 and of 0.05).  A grid minimum across which ``m - F(m)`` does not
    turn from negative to positive is a stretch of the energy flat to
    rounding, as near m = 0 from lambda 6 on, where ``m**order`` vanishes
    against the energy's ulp; it is not reported.
    ``interior_minima`` lists every refined interior local minimum as
    ``(m, energy)`` pairs, even when an endpoint wins.  ``tie_flag`` marks
    endpoint-energy coexistence ``|L(0) - L(1)| <= TIE_TOL``.
    """

    m_star: float
    info_rate: float
    energy_at_0: float
    energy_at_1: float
    fixed_point_residual: float
    tie_flag: bool
    interior_minima: tuple[tuple[float, float], ...] = ()


def _is_array(x) -> bool:
    """Whether ``x`` is an array of at least one dimension (``np.ndim`` is
    ~20 times slower on a Python float)."""
    return isinstance(x, np.ndarray) and x.ndim > 0


def _as_float(x):
    """A 0-d result as a Python float; arrays pass through."""
    return x if _is_array(x) else float(x)


@dataclass(frozen=True)
class _ChannelTable:
    """Piecewise Chebyshev series of ``I(e)`` and ``F(e)``.

    Piece ``p`` covers ``[cuts[p - 1], cuts[p])`` (from 0 for ``p = 0``) and
    the last piece everything from ``cuts[-1] = 80`` up, where its series is
    the constant ``log 2`` or 1.  ``rows[q, :, p]`` is ``[center, scale,
    c_0, ..., c_degree]``, ``q`` being 0 for ``I`` and 1 for ``F``: on piece
    ``p`` the series runs in ``t = (e - center) * scale``, and the first
    piece holds ``I(e) / e`` and ``F(e) / e``, so both are exactly 0 at
    ``e = 0``.  ``lists`` holds ``cuts`` and each piece's row as Python
    lists for float calls.
    """

    cuts: np.ndarray
    rows: np.ndarray
    lists: tuple

    def value(self, q: int, e):
        """``I(e)`` (``q = 0``) or ``F(e)`` (``q = 1``) for a float or array ``e``.

        A negative, NaN or infinite SNR raises :class:`NumericalError`.  An
        array's pieces are read with one gather of their rows.
        """
        if not _is_array(e):
            e = float(e)
            if not 0.0 <= e < math.inf:
                raise _refused(e)
            cuts, rows = self.lists
            p = bisect.bisect_right(cuts, e)
            row = rows[q][p]
            out = chebyshev_series(row[2:], (e - row[0]) * row[1])
            return out * e if p == 0 else out
        e = e.astype(float, copy=False)
        # NaN fails both comparisons
        if e.size and not (e.min() >= 0.0 and e.max() < math.inf):
            raise _refused(e[~((e >= 0.0) & (e < math.inf))][0])
        p = np.searchsorted(self.cuts, e, side="right")
        row = self.rows[q].take(p, axis=1)
        out = chebyshev_series(row[2:], (e - row[0]) * row[1])
        # the other pieces' factor is 1.0, and multiplying by it is exact
        return np.multiply(out, e, out=out, where=p == 0)


def _refused(e) -> NumericalError:
    return NumericalError(f"effective SNR must be finite and >= 0, got {float(e)!r}")


def _by_rule(e, rule):
    """``(I, F)`` at the SNRs ``e``, of shape ``(pieces, points)``, on the
    ``(nodes, weights)`` pair ``rule``, one column at a time, so that no
    integrand holds more than ``pieces`` rows of the rule's nodes."""
    out = np.empty((2,) + e.shape)
    for j, col in enumerate(e.T[:, :, None]):
        root = np.sqrt(col)
        out[0, :, j] = col[:, 0] - gauss_expectation(lambda w: log_cosh(col + root * w), rule)
        out[1, :, j] = gauss_expectation(lambda w: np.tanh(col + root * w), rule)
    return out


@functools.lru_cache(maxsize=1)
def _channel_table() -> _ChannelTable:
    """The scalar-channel table, fitted on ``default_rule()`` at first use
    and cached; the rule's self-check gates it.

    Each piece between ``CHANNEL_CUTS`` interpolates the rule's ``I`` and
    ``F`` at its ``CHANNEL_DEGREE + 1`` Chebyshev points; the series are
    then checked against the rule midway between each pair of adjacent
    points, and a miss above ``CHANNEL_TOL`` (relative above 1) raises
    :class:`NumericalError`.
    """
    rule = default_rule()
    ends = np.array((0.0,) + CHANNEL_CUTS)
    lo, hi = ends[:-1], ends[1:]
    points = chebyshev_points(lo[:, None], hi[:, None], CHANNEL_DEGREE)
    values = _by_rule(points, rule)
    values[:, 0] /= points[0]
    rows = np.zeros((2, CHANNEL_DEGREE + 3, len(hi) + 1))
    rows[:, 0] = np.append(0.5 * (lo + hi), hi[-1])
    rows[:, 1] = np.append(2.0 / (hi - lo), 0.0)
    rows[:, 2:, :-1] = chebyshev_coefficients(values).transpose(0, 2, 1)
    rows[:, 2, -1] = LOG2, 1.0
    table = _ChannelTable(cuts=hi, rows=rows, lists=(hi.tolist(), rows.transpose(0, 2, 1).tolist()))
    mids = 0.5 * (points[:, 1:] + points[:, :-1])
    err = np.stack([table.value(0, mids), table.value(1, mids)]) - _by_rule(mids, rule)
    err = np.abs(err) / np.maximum(1.0, mids)
    if not err.max() <= CHANNEL_TOL:
        q, p, j = np.unravel_index(np.argmax(err), err.shape)
        raise NumericalError(
            f"scalar-channel table failed its check: {'IF'[q]}({float(mids[p, j])!r}) "
            f"is off by {err[q, p, j]:.3e} against the quadrature it is fitted on"
        )
    return table


def _overlap_terms(m, cfg: ReplicaConfig):
    """``(phi(m), phi'(m), sigma_sq + phi(1) - phi(m))`` for the covariance
    function ``phi(m) = power * m**order``; every quantity below is formed
    from them."""
    u = cfg.power * m**cfg.order
    return u, cfg.power * cfg.order * m ** (cfg.order - 1), cfg.sigma_sq + cfg.power - u


def _snr(terms, cfg: ReplicaConfig):
    return terms[1] / (cfg.rate * terms[2])


def _mi(snr):
    val = _channel_table().value(0, snr)
    if _is_array(val):
        return np.minimum(np.maximum(val, 0.0), LOG2)
    # max(0.0, -0.0) is 0.0, as np.maximum(-0.0, 0.0) is
    return min(max(0.0, val), LOG2)


def _cd(terms, cfg: ReplicaConfig):
    return 0.5 * np.log1p((cfg.power - terms[0]) / cfg.sigma_sq)


def _cd_prime(terms):
    return -terms[1] / (2.0 * terms[2])


@functools.lru_cache(maxsize=8)
def _grid_terms(sigma_sq: float, power: float, order: int) -> tuple:
    """``(phi, phi', resid, cd, (1 - m) cd')`` on ``_GRID``, read-only.

    None of them depends on the rate, so a rate scan forms them once; each
    is formed by the operations ``energy`` takes on any other ``m``.
    """
    m = _GRID
    cfg = ReplicaConfig(rate=1.0, sigma_sq=sigma_sq, power=power, order=order)
    terms = _overlap_terms(m, cfg)
    terms += (_cd(terms, cfg), (1.0 - m) * _cd_prime(terms))
    for a in terms:
        a.setflags(write=False)
    return terms


def energy(m, cfg: ReplicaConfig):
    """Energy ``rate * I_D(m) + C_D(m) + (1 - m) * C_D'(m)``, in nats.

    ``I_D`` is ``I``, clipped to ``[0, log 2]``, at the scalar-channel SNR
    ``phi'(m) / (rate * (sigma_sq + phi(1) - phi(m)))``, which is finite on
    [0, 1]; ``C_D(m) = C((phi(1) - phi(m)) / sigma_sq)`` and ``C_D'(m) =
    -phi'(m) / (2 (sigma_sq + phi(1) - phi(m)))``.  ``phi(m)`` and
    ``phi'(m)`` are formed once for the three terms.  On ``_GRID`` itself
    (the object, not an equal array) every term but the rate's is read from
    :func:`_grid_terms`, cached per ``(sigma_sq, power, order)``.
    """
    if m is _GRID:
        terms = _grid_terms(cfg.sigma_sq, cfg.power, cfg.order)
        return (cfg.rate * _mi(_snr(terms, cfg)) + terms[3]) + terms[4]
    terms = _overlap_terms(m, cfg)
    return _as_float(
        cfg.rate * _mi(_snr(terms, cfg))
        + _cd(terms, cfg)
        + (1.0 - m) * _cd_prime(terms)
    )


def fixed_point_map(m, cfg: ReplicaConfig):
    """Stationarity map ``E_w[tanh(E(m) + sqrt(E(m)) w)]``, ``E(m)`` being
    the scalar-channel SNR of :func:`energy`."""
    return _channel_table().value(1, _snr(_overlap_terms(m, cfg), cfg))


def solve_overlap(cfg: ReplicaConfig) -> ReplicaSolution:
    """Minimize the energy over [0, 1] and package the solution.

    The whole grid ``_GRID`` goes to ``energy`` in one call, which reads
    ``I`` from the scalar-channel table.  Interior minima are refined at the
    root of ``m - F(m)``, ``F = fixed_point_map``: by the I-MMSE identity
    (Guo, Shamai & Verdu 2005), ``dE/dm = C_D''(m) (F(m) - m)`` with
    ``C_D'' < 0`` on (0, 1], so the energy falls where ``m - F(m) < 0`` and
    rises where it is positive.  Refinement stops at ``REFINE_TOL``.
    """
    m_star, info_rate, interior, e0, e1 = _minimize_with_diagnostics(
        lambda m: energy(m, cfg),
        lambda m: m - fixed_point_map(m, cfg),
        _GRID,
        REFINE_TOL,
    )
    residual = abs(m_star - fixed_point_map(m_star, cfg))
    return ReplicaSolution(
        m_star=m_star,
        info_rate=info_rate,
        energy_at_0=e0,
        energy_at_1=e1,
        fixed_point_residual=residual,
        tie_flag=abs(e0 - e1) <= TIE_TOL,
        interior_minima=interior,
    )


def classify_regime(m: float) -> int | None:
    """1 for overlaps within REGIME_CLAMP of 1, 0 near 0, else None."""
    if m > 1.0 - REGIME_CLAMP:
        return 1
    if m < REGIME_CLAMP:
        return 0
    return None


def scan_rates(
    cfg_template: ReplicaConfig, rates: Iterable[float]
) -> list[tuple[float, ReplicaSolution]]:
    """One ``(rate, solution)`` pair per rate in ``rates``, in order."""
    return [
        (rate, solve_overlap(replace(cfg_template, rate=rate))) for rate in rates
    ]


def locate_critical_rate(
    cfg_template: ReplicaConfig,
    bracket_lo: float,
    bracket_hi: float,
    tol: float = 1e-4,
) -> float:
    """The rate at which the overlap collapses to zero, as bisection finds it.

    Requires the bracket to straddle the regime change: the overlap must sit
    in the all-recovered regime (m* ~ 1) at ``bracket_lo`` and in the
    zero-overlap regime at ``bracket_hi``.  The answer is the midpoint of
    the final bracket, of width <= ``tol``, of bisecting the indicator
    ``m* < 1/2``.

    The collapse is usually where the endpoint energies cross,
    ``energy(1) = energy(0)``.  When ``energy(1) - energy(0)`` turns from
    negative to positive across the bracket, its Brent root picks the
    bisection's final bracket without a solve, and two solves verify it:
    if ``m* >= 1/2`` at its lower end and ``m* < 1/2`` at its upper end, it
    is the bracket a bisection of a monotone indicator ends on.  Otherwise,
    as when an interior minimum wins near the crossing, the plain bisection
    runs, reusing every solve already made.
    """
    if not bracket_lo < bracket_hi:
        raise BracketError(f"degenerate bracket [{bracket_lo}, {bracket_hi}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    sol_lo = solve_overlap(replace(cfg_template, rate=bracket_lo))
    sol_hi = solve_overlap(replace(cfg_template, rate=bracket_hi))
    if sol_lo.m_star < 0.9:
        raise BracketError(
            f"overlap at rate {bracket_lo} is {sol_lo.m_star:.6f}, not in the "
            f"recovered regime; widen the bracket downward"
        )
    if classify_regime(sol_hi.m_star) != 0:
        raise BracketError(
            f"overlap at rate {bracket_hi} is {sol_hi.m_star:.6g}, never reaching "
            f"the zero regime; no collapse transition exists on this bracket "
            f"(linear fields have none at any rate)"
        )

    known = {bracket_lo: sol_lo.m_star, bracket_hi: sol_hi.m_star}

    def below_half(rate: float) -> bool:
        m = known.get(rate)
        if m is None:
            m = known[rate] = solve_overlap(replace(cfg_template, rate=rate)).m_star
        return m < 0.5

    def crossing(rate: float) -> float:
        cfg = replace(cfg_template, rate=rate)
        return energy(1.0, cfg) - energy(0.0, cfg)

    d_lo = sol_lo.energy_at_1 - sol_lo.energy_at_0
    d_hi = sol_hi.energy_at_1 - sol_hi.energy_at_0
    if d_lo < 0.0 < d_hi:
        root = _brent_root(
            crossing, bracket_lo, bracket_hi, 1e-6 * tol, fa=d_lo, fb=d_hi
        )
        a, b = _dyadic_bracket(lambda r: r > root, bracket_lo, bracket_hi, tol)
        if not below_half(a) and below_half(b):
            return 0.5 * (a + b)
    return bisect_transition(below_half, bracket_lo, bracket_hi, tol)
