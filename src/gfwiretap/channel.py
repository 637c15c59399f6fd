"""Closed-form information quantities of the Gaussian wiretap channel.

Rates named ``*_rate`` count binary symbols per channel use; capacities are
in nats per channel use unless noted.  ``bits = nats / log 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = [
    "LOG2",
    "WiretapParams",
    "awgn_capacity",
    "secrecy_capacity",
    "key_length",
    "bin_size",
    "critical_rate_heuristic",
]

LOG2 = math.log(2.0)


def _require_positive(**values: float) -> None:
    """Refuse, by name, the first value that is not finite and > 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class WiretapParams:
    """Average transmit power and the two receiver noise variances."""

    power: float
    sigma_b_sq: float
    sigma_e_sq: float

    def __post_init__(self):
        _require_positive(
            power=self.power, sigma_b_sq=self.sigma_b_sq, sigma_e_sq=self.sigma_e_sq
        )


def awgn_capacity(snr: float) -> float:
    """Capacity ``0.5 * log(1 + snr)`` of a real AWGN channel, in nats."""
    if not (math.isfinite(snr) and snr >= 0.0):
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    return 0.5 * math.log1p(snr)


def secrecy_capacity(p: WiretapParams) -> float:
    """``max(0, C(P/sigma_b^2) - C(P/sigma_e^2))`` in nats per channel use."""
    c_bob = awgn_capacity(p.power / p.sigma_b_sq)
    c_eve = awgn_capacity(p.power / p.sigma_e_sq)
    return max(0.0, c_bob - c_eve)


def key_length(n: int, power: float, sigma_e_sq: float) -> int:
    """Key symbols needed to saturate the eavesdropper channel over n uses.

    ``ceil((n / log 2) * C(power / sigma_e_sq))``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _require_positive(power=power, sigma_e_sq=sigma_e_sq)
    c_eve = awgn_capacity(power / sigma_e_sq)
    if c_eve == 0.0:
        raise ConfigurationError(
            "eavesdropper capacity is zero: no key symbols, scheme undefined"
        )
    return int(math.ceil(n * c_eve / LOG2))


def bin_size(k: int, k_tilde: int) -> int:
    """Bin width ``ceil(1 + k / k_tilde)`` of the key-interleaving layout."""
    if k < 1 or k_tilde < 1:
        raise ValueError(f"k and k_tilde must be >= 1, got {k}, {k_tilde}")
    return 1 + -(-k // k_tilde)


def critical_rate_heuristic(power: float, sigma_sq: float) -> float:
    """Equal-endpoint-energy transition rate ``C(power/sigma_sq) / log 2``.

    In binary symbols per channel use; this is the channel capacity in bits.
    """
    _require_positive(power=power, sigma_sq=sigma_sq)
    return awgn_capacity(power / sigma_sq) / LOG2
