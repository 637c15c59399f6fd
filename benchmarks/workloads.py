"""The benchmark workloads: op lists drawn from a workload seed, and the
checks every op output must pass.

An *op* is one call into a public entry point of ``gfwiretap``.  Entry points
are looked up on their module at call time (``replica.solve_overlap``, not a
name bound at import), so the tracer's wrappers and a test's patches apply.

A *pass* is the fixed list of ops that makes up a workload's full result;
``ops(seed, p)`` gives the ops of pass ``p`` and depends only on its
arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gfwiretap import channel, codec, field, replica, simulate

#: Transmit power and noise of the collapse scan (the README configuration).
POWER = 1.0
SIGMA_SQ = 0.1
#: Rate range of the collapse scan.
RATE_LO, RATE_HI = 0.7, 3.0
#: Field order and noises of the codec workloads.
ORDER = 3
SIGMA_B_SQ = 0.01
SIGMA_E_SQ = 1.0
#: Overlaps probed by the covariance workload, as in ``field-check``.
OVERLAPS = (-1.0, -0.5, 0.0, 0.5, 1.0)


def derive_seeds(seed: int, *path: int, count: int = 1) -> list[int]:
    """``count`` 64-bit seeds that depend only on ``(seed, *path)``."""
    state = np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path))
    return [int(v) for v in state.generate_state(count, dtype=np.uint64)]


def codec_config(n: int, k: int, k_tilde: int, seeds) -> codec.CodecConfig:
    field_seed, perm_seed, key_seed, noise_seed = seeds
    return codec.CodecConfig(
        n=n,
        k=k,
        k_tilde=k_tilde,
        order=ORDER,
        power=POWER,
        sigma_b_sq=SIGMA_B_SQ,
        sigma_e_sq=SIGMA_E_SQ,
        field_seed=field_seed,
        perm_seed=perm_seed,
        key_seed=key_seed,
        noise_seed=noise_seed,
    )


@dataclass(frozen=True)
class CollapseScan:
    """One ``solve_overlap`` per rate on a grid over [0.7, 3.0] for lambda 3
    and lambda 1, then one lambda-3 ``locate_critical_rate``."""

    name = "collapse_scan"
    tag = 1
    n_rates: int = 46
    tol: float = 1e-4

    def ops(self, seed: int, p: int) -> list[tuple]:
        (offset_seed,) = derive_seeds(seed, self.tag, p)
        offset = np.random.default_rng(offset_seed).random()
        step = (RATE_HI - RATE_LO) / self.n_rates
        rates = [RATE_LO + (i + offset) * step for i in range(self.n_rates)]
        solves = [("solve", order, rate) for order in (3, 1) for rate in rates]
        return solves + [("locate", 3, None)]

    def run(self, op):
        kind, order, rate = op
        if kind == "solve":
            cfg = replica.make_config(rate=rate, sigma_sq=SIGMA_SQ, power=POWER, order=order)
            return replica.solve_overlap(cfg)
        heuristic = channel.critical_rate_heuristic(POWER, SIGMA_SQ)
        cfg = replica.make_config(rate=1.0, sigma_sq=SIGMA_SQ, power=POWER, order=order)
        return replica.locate_critical_rate(
            cfg, 0.8 * heuristic, 1.3 * heuristic, tol=self.tol
        )

    def check(self, op, out) -> str | None:
        kind, order, rate = op
        heuristic = channel.critical_rate_heuristic(POWER, SIGMA_SQ)
        if kind == "locate":
            if not abs(out - heuristic) <= 0.005:
                return f"located rate {out!r} is not within 0.005 of {heuristic!r}"
            return None
        if not (math.isfinite(out.m_star) and math.isfinite(out.info_rate)):
            return f"non-finite solution at rate {rate!r}"
        cap = min(rate * channel.LOG2, channel.awgn_capacity(POWER / SIGMA_SQ))
        if not out.info_rate <= cap + 1e-9:
            return f"info_rate {out.info_rate!r} exceeds {cap!r} at rate {rate!r}"
        if order >= 3 and abs(rate - heuristic) > 0.05:
            recovered = rate < heuristic
            if recovered and not out.m_star >= 1.0 - 1e-9:
                return f"m* = {out.m_star!r} below the collapse at rate {rate!r}"
            if not recovered and not out.m_star <= 1e-9:
                return f"m* = {out.m_star!r} above the collapse at rate {rate!r}"
        return None

    def values(self, op, out) -> tuple:
        if op[0] == "locate":
            return (out,)
        return (out.m_star, out.info_rate, out.fixed_point_residual)


@dataclass(frozen=True)
class DecodeFresh:
    """One ``run_experiment(cfg, 1)`` per op; every op resamples its field and
    binning plan through its own seeds."""

    name = "decode_fresh"
    tag = 2
    ops_per_pass: int = 16
    n: int = 16
    k: int = 6
    k_tilde: int = 4

    def ops(self, seed: int, p: int) -> list:
        return [
            codec_config(self.n, self.k, self.k_tilde, derive_seeds(seed, self.tag, p, j, count=4))
            for j in range(self.ops_per_pass)
        ]

    def run(self, cfg):
        return simulate.run_experiment(cfg, 1, threads=1)

    def check(self, cfg, report) -> str | None:
        if report.n_trials != 1 or len(report.trials) != 1:
            return f"expected one trial, got {len(report.trials)}"
        t = report.trials[0]
        if not (0.0 <= t.flip_fraction <= 1.0 and -1.0 <= t.overlap <= 1.0):
            return f"flip fraction {t.flip_fraction!r} or overlap {t.overlap!r} out of range"
        if not t.bound_ok or not 0 <= t.bit_errors <= cfg.k:
            return "trial violates f <= 1 - <s;r> or the bit-error range"
        if report.message_error_rate != float(t.decoded != t.message):
            return "message error rate disagrees with the trial"
        return None

    def values(self, cfg, report) -> tuple:
        t = report.trials[0]
        return (t.message, t.decoded, t.flip_fraction, t.overlap)


@dataclass(frozen=True)
class LeakageScan:
    """One ``estimate_leakage`` per op on a fresh (field, plan) realisation."""

    name = "leakage_scan"
    tag = 3
    ops_per_pass: int = 4
    samples: int = 2000
    n: int = 16
    k: int = 6
    k_tilde: int = 4

    def ops(self, seed: int, p: int) -> list:
        return [
            codec_config(self.n, self.k, self.k_tilde, derive_seeds(seed, self.tag, p, j, count=4))
            for j in range(self.ops_per_pass)
        ]

    def run(self, cfg):
        fld = field.sample_field(field.FieldSpec(cfg.n, cfg.k_tot, ORDER, POWER, cfg.field_seed))
        plan = codec.build_binning(cfg.k, cfg.k_tilde, cfg.perm_seed)
        return simulate.estimate_leakage(cfg, fld, plan, self.samples)

    def check(self, cfg, est) -> str | None:
        if not all(math.isfinite(v) for v in self.values(cfg, est)):
            return f"non-finite leakage estimate {est!r}"
        if not est.chain_residual <= 1e-12:
            return f"chain residual {est.chain_residual!r} exceeds 1e-12"
        return None

    def values(self, cfg, est) -> tuple:
        return (
            est.leakage,
            est.leakage_se,
            est.mi_all_symbols,
            est.mi_all_symbols_se,
            est.mi_key_given_msg,
            est.mi_key_given_msg_se,
            est.chain_residual,
        )


@dataclass(frozen=True)
class CovarianceLaw:
    """One ``covariance_probe`` per op over many resampled tiny fields."""

    name = "covariance_law"
    tag = 4
    ops_per_pass: int = 8
    fields: int = 2000
    k_tot: int = 8

    def probes(self) -> tuple[np.ndarray, list[np.ndarray]]:
        s1 = np.ones(self.k_tot)
        probes = []
        for u in OVERLAPS:
            s2 = np.ones(self.k_tot)
            s2[: round((1.0 - u) / 2.0 * self.k_tot)] = -1.0
            probes.append(s2)
        return s1, probes

    def ops(self, seed: int, p: int) -> list[int]:
        return derive_seeds(seed, self.tag, p, count=self.ops_per_pass)

    def run(self, op_seed: int):
        spec = field.FieldSpec(2, self.k_tot, ORDER, POWER, op_seed)
        s1, probes = self.probes()
        return field.covariance_probe(spec, s1, probes, self.fields, op_seed)

    def check(self, op_seed, results) -> str | None:
        for u, (same, se_same, cross, se_cross) in zip(OVERLAPS, results):
            theory = POWER * u**ORDER
            if not abs(same - theory) <= 5.0 * se_same:
                return f"same-output covariance {same!r} at u={u} is over 5 SE from {theory!r}"
            if not abs(cross) <= 5.0 * se_cross:
                return f"cross-output covariance {cross!r} at u={u} is over 5 SE from 0"
        return None

    def values(self, op_seed, results) -> tuple:
        return tuple(v for row in results for v in row)


WORKLOADS = {w.name: w for w in (CollapseScan(), DecodeFresh(), LeakageScan(), CovarianceLaw())}

#: One in-process ``cli.main`` call per subcommand, at smoke size, for the
#: traced run's ``cli`` layer.
CLI_SMOKE = (
    ["replica-scan", "--rates", "1.0:1.2:0.1"],
    ["critical-rate", "--bracket", "1.5:2.0", "--tol", "0.05"],
    ["simulate", "--n", "8", "--k", "2", "--k-tilde", "2",
     "--sigma-b-sq", "0.01", "--sigma-e-sq", "1", "--trials", "2"],
    ["leakage", "--n", "8", "--k", "2", "--k-tilde", "2",
     "--sigma-e-sq", "1", "--samples", "50"],
    ["field-check", "--k-tot", "4", "--fields", "50"],
)


# ----------------------------------------------------------------------------
# Brute-force posterior-mean oracle.


@dataclass(frozen=True)
class OracleCheck:
    """Generated (field, y) pairs on which ``codec.mmse_estimate`` must match
    a brute-force posterior mean to 1e-9.  Pairs alternate between the
    legitimate receiver's noise and the eavesdropper's."""

    pairs: int = 4
    n: int = 16
    dim: int = 10

    def pair(self, seed: int, j: int):
        field_seed, draw_seed = derive_seeds(seed, 9, j, count=2)
        fld = field.sample_field(field.FieldSpec(self.n, self.dim, ORDER, POWER, field_seed))
        rng = np.random.default_rng(draw_seed)
        u = rng.integers(0, 2, size=self.dim) * 2.0 - 1.0
        sigma_sq = SIGMA_B_SQ if j % 2 == 0 else SIGMA_E_SQ
        y = field.evaluate(fld, u) + rng.normal(0.0, math.sqrt(sigma_sq), size=self.n)
        return fld, y, sigma_sq

    def run(self, seed: int) -> tuple[list[str], list[float]]:
        """Failure messages, and the effective-candidate fraction of every
        pair at the receiver's noise."""
        failures, ess = [], []
        for j in range(self.pairs):
            fld, y, sigma_sq = self.pair(seed, j)
            try:
                got = codec.mmse_estimate(fld, y, sigma_sq)
            except Exception as exc:  # an op that raises is a failed op
                failures.append(f"oracle pair {j}: mmse_estimate raised {exc!r}")
                continue
            want, ess_frac = posterior_oracle(fld, y, sigma_sq)
            err = float(np.max(np.abs(np.asarray(got) - want)))
            if not err <= 1e-9:
                failures.append(f"oracle pair {j}: posterior mean off by {err:.3e}")
            if sigma_sq == SIGMA_B_SQ:
                ess.append(ess_frac)
        return failures, ess


def posterior_oracle(fld, y, sigma_sq: float) -> tuple[np.ndarray, float]:
    """Posterior mean by evaluating every pattern from scratch.

    Returns the mean and the effective number of candidates
    ``(sum w)^2 / sum w^2`` as a fraction of ``2**dim``.
    """
    dim = fld.spec.dim
    patterns = np.array(
        [[1.0 if (p >> b) & 1 else -1.0 for b in range(dim)] for p in range(1 << dim)]
    )
    logw = np.array(
        [-0.5 * float(np.sum((y - field.evaluate(fld, u)) ** 2)) / sigma_sq for u in patterns]
    )
    w = np.exp(logw - logw.max())
    mean = (w @ patterns) / w.sum()
    ess = w.sum() ** 2 / float(w @ w)
    return mean, ess / (1 << dim)
