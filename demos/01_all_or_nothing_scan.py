"""The all-or-nothing collapse of exact Bayesian decoding.

Sweeps the input rate for a linear field and for a cubic field at the same
power and noise, and prints the limiting overlap and information rate of the
posterior-mean decoder.  The linear encoder degrades gracefully: the overlap
shrinks but never dies.  The cubic encoder holds the overlap at exactly 1 up
to a critical rate and then drops to exactly 0, pinning the information rate
to the channel capacity.

Run:  python demos/01_all_or_nothing_scan.py
"""

import numpy as np

from gfwiretap import awgn_capacity, critical_rate_heuristic, make_config, scan_rates

POWER = 1.0
SIGMA_SQ = 0.1

capacity = awgn_capacity(POWER / SIGMA_SQ)
r_star = critical_rate_heuristic(POWER, SIGMA_SQ)
print(f"channel: P={POWER}, sigma^2={SIGMA_SQ}")
print(f"capacity C = {capacity:.6f} nats/use = {r_star:.6f} bits/use\n")

for order in (1, 3):
    cfg = make_config(rate=1.0, sigma_sq=SIGMA_SQ, power=POWER, order=order)
    rows = scan_rates(cfg, [0.6 + 0.2 * i for i in range(13)])
    print(f"covariance exponent lambda = {order}")
    print(f"{'rate':>6} {'overlap':>10} {'info rate':>12} {'R log 2':>10}")
    for rate, sol in rows:
        print(
            f"{rate:6.2f} {sol.m_star:10.6f} {sol.info_rate:12.8f} "
            f"{rate * np.log(2.0):10.6f}"
        )
    print()

print(
    "Note how the lambda=3 info rate tracks R log 2 (perfect recovery) up to\n"
    f"R* ~ {r_star:.4f} and equals the capacity {capacity:.6f} beyond it,\n"
    "while lambda=1 transitions smoothly and its overlap never reaches zero."
)
