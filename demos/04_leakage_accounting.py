"""Leakage accounting: what the key buys.

Estimates three mutual informations per channel use at the eavesdropper,
with exact posteriors at enumerable sizes:

  leakage           = I(message ; observation)
  mi_all_symbols    = I(all permuted symbols ; observation)
  mi_key_given_msg  = I(key ; observation | message)

The chain rule says the first equals the difference of the other two, and
since all three are averaged over the same samples the residual is zero to
rounding.  Starving the scheme of key symbols shifts mutual information from
the key term into the message term: that shift is exactly the leakage the
binning is there to absorb.

Run:  python demos/04_leakage_accounting.py
"""

from gfwiretap import CodecConfig, estimate_leakage
from gfwiretap.simulate import _trial_field, _trial_plan

SAMPLES = 3000


def show(tag, cfg):
    est = estimate_leakage(cfg, _trial_field(cfg, 0), _trial_plan(cfg, 0), SAMPLES)
    print(f"{tag}")
    print(f"  leakage          = {est.leakage:8.5f} +- {est.leakage_se:.5f} nats/use")
    print(f"  mi_all_symbols   = {est.mi_all_symbols:8.5f} +- {est.mi_all_symbols_se:.5f}")
    print(f"  mi_key_given_msg = {est.mi_key_given_msg:8.5f} +- {est.mi_key_given_msg_se:.5f}")
    # below 1e-12 the residual is rounding whose digits move with any
    # reordering of the sums, so only the bound is printed
    if est.chain_residual < 1e-12:
        print("  chain residual   < 1e-12\n")
    else:
        print(f"  chain residual   = {est.chain_residual:.2e}\n")
    return est


base = dict(n=12, k=5, order=3, sigma_b_sq=0.05, sigma_e_sq=1.0,
            field_seed=20, perm_seed=21, key_seed=22, noise_seed=23)

# k_tilde left to its channel-derived default: enough key symbols to soak up
# the eavesdropper's capacity
funded = CodecConfig(**base)
print(f"funded scheme: k_tilde defaults to {funded.k_tilde}")
est_funded = show("key budget from the eavesdropper capacity:", funded)

# starved: a single key symbol, recorded as an override
starved = CodecConfig(k_tilde=1, **base)
est_starved = show("starved scheme (k_tilde = 1, override):", starved)

print(f"message leakage rises from {est_funded.leakage:.5f} to "
      f"{est_starved.leakage:.5f} nats/use when the key is starved.")

quiet = CodecConfig(**{**base, "sigma_e_sq": 1e6})
show("sanity check, eavesdropper noise 1e6 (leakage ~ 0):", quiet)
