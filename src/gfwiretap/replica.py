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


@dataclass(frozen=True)
class ReplicaConfig:
    """Parameters of one decoupled-setting evaluation.

    ``rate`` is the number of input symbols per channel use, ``order`` the
    exponent of the covariance function ``power * u**order``.
    """

    rate: float
    sigma_sq: float
    power: float
    order: int
    quadrature: QuadratureRule
    grid_step: float = 1e-3
    refine_tol: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")
        for name in ("sigma_sq", "power", "grid_step", "refine_tol"):
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
    quadrature: QuadratureRule | None = None,
    grid_step: float = 1e-3,
    refine_tol: float = 1e-10,
) -> ReplicaConfig:
    """ReplicaConfig with the validated default quadrature rule."""
    return ReplicaConfig(
        rate=rate,
        sigma_sq=sigma_sq,
        power=power,
        order=order,
        quadrature=quadrature if quadrature is not None else default_rule(),
        grid_step=grid_step,
        refine_tol=refine_tol,
    )


@dataclass(frozen=True)
class ReplicaSolution:
    """Minimizer of the energy function and its diagnostics.

    ``info_rate`` equals the energy at ``m_star`` (nats per channel use).
    ``fixed_point_residual`` is ``|m* - E_w[tanh(E(m*) + sqrt(E(m*)) w)]|``,
    the stationarity defect; it is only meaningful for interior minimizers.
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


def effective_snr(m: float, cfg: ReplicaConfig) -> float:
    """Scalar-channel SNR ``phi'(m) / (rate * (sigma_sq + phi(1) - phi(m)))``.

    The denominator is at least ``rate * sigma_sq``, so the value is finite
    everywhere on [0, 1].
    """
    num = phi_prime(m, cfg.power, cfg.order)
    den = cfg.rate * (cfg.sigma_sq + cfg.power - phi(m, cfg.power, cfg.order))
    return num / den


def decoupled_mi(m: float, cfg: ReplicaConfig) -> float:
    """Mutual information of the decoupled binary-input channel, in nats.

    ``E - E_w[log cosh(E + sqrt(E) w)]`` with ``E = effective_snr(m)``;
    bounded by log 2 (binary input).
    """
    e = effective_snr(m, cfg)
    sqrt_e = math.sqrt(e)
    val = e - gauss_expectation(lambda w: log_cosh(e + sqrt_e * w), cfg.quadrature)
    return min(max(val, 0.0), LOG2)


def cd(m: float, cfg: ReplicaConfig) -> float:
    """Residual-power capacity term ``C((phi(1) - phi(m)) / sigma_sq)``."""
    gap = cfg.power - phi(m, cfg.power, cfg.order)
    return 0.5 * math.log1p(gap / cfg.sigma_sq)


def cd_prime(m: float, cfg: ReplicaConfig) -> float:
    """Analytic derivative ``-phi'(m) / (2 (sigma_sq + phi(1) - phi(m)))``."""
    num = phi_prime(m, cfg.power, cfg.order)
    den = 2.0 * (cfg.sigma_sq + cfg.power - phi(m, cfg.power, cfg.order))
    return -num / den


def energy(m: float, cfg: ReplicaConfig) -> float:
    """Energy ``rate * I_D(m) + C_D(m) + (1 - m) * C_D'(m)``, in nats."""
    return (
        cfg.rate * decoupled_mi(m, cfg)
        + cd(m, cfg)
        + (1.0 - m) * cd_prime(m, cfg)
    )


def fixed_point_map(m: float, cfg: ReplicaConfig) -> float:
    """Stationarity map ``E_w[tanh(E(m) + sqrt(E(m)) w)]``."""
    e = effective_snr(m, cfg)
    sqrt_e = math.sqrt(e)
    return gauss_expectation(lambda w: np.tanh(e + sqrt_e * w), cfg.quadrature)


def solve_overlap(cfg: ReplicaConfig) -> ReplicaSolution:
    """Minimize the energy over [0, 1] and package the solution."""
    obj = lambda m: energy(m, cfg)
    m_star, info_rate, interior, e0, e1 = _minimize_with_diagnostics(
        obj, 0.0, 1.0, cfg.grid_step, cfg.refine_tol
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
    """Bisect for the rate at which the overlap collapses to zero.

    Requires the bracket to straddle the regime change: the overlap must sit
    in the all-recovered regime (m* ~ 1) at ``bracket_lo`` and in the
    zero-overlap regime at ``bracket_hi``.  Bisects the indicator
    ``m* < 1/2`` to a bracket of width <= ``tol``.
    """
    m_lo = solve_overlap(replace(cfg_template, rate=bracket_lo)).m_star
    m_hi = solve_overlap(replace(cfg_template, rate=bracket_hi)).m_star
    if m_lo < 0.9:
        raise BracketError(
            f"overlap at rate {bracket_lo} is {m_lo:.6f}, not in the "
            f"recovered regime; widen the bracket downward"
        )
    if classify_regime(m_hi) != 0:
        raise BracketError(
            f"overlap at rate {bracket_hi} is {m_hi:.6g}, never reaching the "
            f"zero regime; no collapse transition exists on this bracket "
            f"(linear fields have none at any rate)"
        )

    # the bisection re-tests both bracket ends first; answer those from the
    # two solves above instead of solving them again
    known = {bracket_lo: m_lo, bracket_hi: m_hi}

    def below_half(rate: float) -> bool:
        m = known.pop(rate, None)
        if m is None:
            m = solve_overlap(replace(cfg_template, rate=rate)).m_star
        return m < 0.5

    return bisect_transition(below_half, bracket_lo, bracket_hi, tol)
