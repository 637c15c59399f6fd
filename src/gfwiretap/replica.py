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

``effective_snr``, ``decoupled_mi``, ``cd``, ``cd_prime`` and ``energy``
accept a float or an array of overlaps ``m`` through one code path: a float
gives a Python float, an array gives an array of the same shape.  The
solver evaluates the energy on row blocks of its grid this way.  It works at
one resolution, the module constants ``GRID_STEP`` and ``REFINE_TOL``.

All operations are pure; rate scans may run concurrently without shared
state.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .channel import LOG2
from .errors import BracketError
from .numerics import (
    QuadratureRule,
    _brent_root,
    _dyadic_bracket,
    _minimize_with_diagnostics,
    bisect_transition,
    default_rule,
    gauss_expectation,
    log_cosh,
)

__all__ = [
    "ReplicaConfig",
    "ReplicaSolution",
    "make_config",
    "phi",
    "phi_prime",
    "effective_snr",
    "decoupled_mi",
    "cd",
    "cd_prime",
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
#: Tolerance to which an interior minimum is refined.
REFINE_TOL = 1e-10


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
    quadrature: QuadratureRule

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")
        for name in ("sigma_sq", "power"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (isinstance(self.order, (int, np.integer)) and self.order >= 1):
            raise ValueError(f"order must be an integer >= 1, got {self.order}")


def make_config(
    rate: float,
    sigma_sq: float = 0.1,
    power: float = 1.0,
    order: int = 3,
) -> ReplicaConfig:
    """ReplicaConfig with the validated default quadrature rule."""
    return ReplicaConfig(
        rate=rate,
        sigma_sq=sigma_sq,
        power=power,
        order=order,
        quadrature=default_rule(),
    )


@dataclass(frozen=True, slots=True)
class ReplicaSolution:
    """Minimizer of the energy function and its diagnostics.

    ``info_rate`` equals the energy at ``m_star`` (nats per channel use).
    ``fixed_point_residual`` is ``|m* - E_w[tanh(E(m*) + sqrt(E(m*)) w)]|``,
    the stationarity defect; it is only meaningful for interior minimizers.
    An interior minimum refined at the root of ``m - F(m)`` has a residual
    near 1e-11; one refined by golden section (the fallback) near 1e-8.
    ``interior_minima`` lists every refined interior local minimum as
    ``(m, energy)`` pairs, even when an endpoint wins.  ``tie_flag`` marks
    endpoint-energy coexistence ``|L(0) - L(1)| <= 1e-12``.
    """

    m_star: float
    info_rate: float
    energy_at_0: float
    energy_at_1: float
    fixed_point_residual: float
    tie_flag: bool
    interior_minima: tuple[tuple[float, float], ...] = ()


def phi(u: float, power: float, order: int) -> float:
    """Covariance function ``power * u**order``."""
    return power * u**order


def phi_prime(u: float, power: float, order: int) -> float:
    """Derivative ``power * order * u**(order-1)``; equals ``power`` at order 1."""
    return power * order * u ** (order - 1)


def _as_float(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def _node_expectation(g, e, cfg: ReplicaConfig):
    """``E_w[g(e + sqrt(e) w)]`` for each effective SNR in ``e``."""
    e_col = np.asarray(e)[..., None]
    sqrt_col = np.sqrt(e_col)
    return gauss_expectation(lambda w: g(e_col + sqrt_col * w), cfg.quadrature)


def effective_snr(m, cfg: ReplicaConfig):
    """Scalar-channel SNR ``phi'(m) / (rate * (sigma_sq + phi(1) - phi(m)))``.

    The denominator is at least ``rate * sigma_sq``, so the value is finite
    everywhere on [0, 1].
    """
    num = phi_prime(m, cfg.power, cfg.order)
    den = cfg.rate * (cfg.sigma_sq + cfg.power - phi(m, cfg.power, cfg.order))
    return _as_float(num / den)


def decoupled_mi(m, cfg: ReplicaConfig):
    """Mutual information of the decoupled binary-input channel, in nats.

    ``E - E_w[log cosh(E + sqrt(E) w)]`` with ``E = effective_snr(m)``;
    bounded by log 2 (binary input).
    """
    e = effective_snr(m, cfg)
    val = e - _node_expectation(log_cosh, e, cfg)
    return _as_float(np.minimum(np.maximum(val, 0.0), LOG2))


def cd(m, cfg: ReplicaConfig):
    """Residual-power capacity term ``C((phi(1) - phi(m)) / sigma_sq)``."""
    gap = cfg.power - phi(m, cfg.power, cfg.order)
    return _as_float(0.5 * np.log1p(gap / cfg.sigma_sq))


def cd_prime(m, cfg: ReplicaConfig):
    """Analytic derivative ``-phi'(m) / (2 (sigma_sq + phi(1) - phi(m)))``."""
    num = phi_prime(m, cfg.power, cfg.order)
    den = 2.0 * (cfg.sigma_sq + cfg.power - phi(m, cfg.power, cfg.order))
    return _as_float(-num / den)


def energy(m, cfg: ReplicaConfig):
    """Energy ``rate * I_D(m) + C_D(m) + (1 - m) * C_D'(m)``, in nats."""
    return _as_float(
        cfg.rate * decoupled_mi(m, cfg)
        + cd(m, cfg)
        + (1.0 - m) * cd_prime(m, cfg)
    )


def fixed_point_map(m: float, cfg: ReplicaConfig) -> float:
    """Stationarity map ``E_w[tanh(E(m) + sqrt(E(m)) w)]``."""
    return _node_expectation(np.tanh, effective_snr(m, cfg), cfg)


def solve_overlap(cfg: ReplicaConfig) -> ReplicaSolution:
    """Minimize the energy over [0, 1] and package the solution.

    The ``GRID_STEP`` grid goes to ``energy`` in row blocks, each one array of
    ``(rows, nodes)`` integrand values.  Interior minima are refined at the
    root of ``m - F(m)``, ``F = fixed_point_map``: by the I-MMSE identity
    (Guo, Shamai & Verdu 2005), ``dE/dm = C_D''(m) (F(m) - m)`` with
    ``C_D'' < 0`` on (0, 1], so the energy falls where ``m - F(m) < 0`` and
    rises where it is positive.  Refinement stops at ``REFINE_TOL``.
    """
    obj = lambda m: energy(m, cfg)
    m_star, info_rate, interior, e0, e1 = _minimize_with_diagnostics(
        obj, 0.0, 1.0, GRID_STEP, REFINE_TOL,
        stationary=lambda m: m - fixed_point_map(m, cfg),
    )
    residual = abs(m_star - fixed_point_map(m_star, cfg))
    return ReplicaSolution(
        m_star=m_star,
        info_rate=info_rate,
        energy_at_0=e0,
        energy_at_1=e1,
        fixed_point_residual=residual,
        tie_flag=abs(e0 - e1) <= 1e-12,
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
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
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
