"""Command-line entry point.

Subcommands: replica-scan, critical-rate, simulate, leakage, field-check.
Output is plain comma-delimited text with '#'-prefixed header lines carrying
the full effective configuration and a '# versions:' line (package, numpy and
scipy), so re-running with the header's values under those versions
reproduces the file byte-for-byte apart from the '# generated:' line.

Exit statuses: 0 success, 2 usage error, 3 resource/budget error,
4 numerical failure.  Science parameters come only from flags or the config
file.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from ._version import versions_line
from .channel import (
    LOG2,
    WiretapParams,
    awgn_capacity,
    critical_rate_heuristic,
    secrecy_capacity,
)
from .codec import CodecConfig, build_binning
from .errors import BracketError, BudgetError, NumericalError
from .field import FieldSpec, covariance_probe
from .replica import locate_critical_rate, make_config, scan_rates
from .simulate import (
    _trial_field,
    _trial_plan,
    average_leakage_over_realizations,
    estimate_leakage,
    run_experiment,
    write_report,
)

USAGE_ERROR = 2
RESOURCE_ERROR = 3
NUMERICAL_ERROR = 4


class UsageError(Exception):
    pass


def _parse_range(text: str) -> list[float]:
    """Parse 'lo:hi:step' into a grid, inclusive of both ends when step
    divides the span within 1e-12."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"range values must be numeric, got {text!r}") from None
    if step <= 0.0:
        raise UsageError(f"range step must be positive, got {step}")
    if lo > hi:
        raise UsageError(f"range is inverted: lo={lo} > hi={hi}")
    count = int(math.floor((hi - lo) / step + 1e-12))
    points = [lo + i * step for i in range(count + 1)]
    if abs(points[-1] - hi) <= 1e-12:
        points[-1] = hi
    return points


def _parse_bracket(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"bracket must be lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"bracket values must be numeric, got {text!r}") from None
    if not lo < hi:
        raise UsageError(f"bracket is inverted or degenerate: {text!r}")
    return lo, hi


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _emit_header(fh, subcommand: str, params: dict) -> None:
    fh.write(f"# gfwiretap {subcommand} v1\n")
    fh.write(versions_line())
    for name in sorted(params):
        fh.write(f"# param {name} = {params[name]}\n")
    fh.write(f"# generated: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")


def _unit_divisor(units: str) -> float:
    return LOG2 if units == "bits" else 1.0


def _cmd_replica_scan(args) -> int:
    rates = _parse_range(args.rates)
    if rates[0] <= 0.0:
        raise UsageError(f"rates must be positive, got {rates[0]}")
    div = _unit_divisor(args.units)
    cfg = make_config(
        rate=rates[0],
        sigma_sq=args.sigma_sq,
        power=args.power,
        order=args.order,
        grid_step=args.grid_step,
        refine_tol=args.refine_tol,
    )
    rows = scan_rates(cfg, rates)
    with _open_out(args.out) as fh:
        _emit_header(
            fh,
            "replica-scan",
            {
                "lambda": args.order,
                "power": args.power,
                "sigma_sq": args.sigma_sq,
                "rates": args.rates,
                "grid_step": args.grid_step,
                "refine_tol": args.refine_tol,
                "units": args.units,
            },
        )
        fh.write("rate,m_star,info_rate,energy_at_0,energy_at_1,fixed_point_residual\n")
        for rate, sol in rows:
            fh.write(
                f"{rate:.17g},{sol.m_star:.17g},{sol.info_rate / div:.17g},"
                f"{sol.energy_at_0 / div:.17g},{sol.energy_at_1 / div:.17g},"
                f"{sol.fixed_point_residual:.17g}\n"
            )
    return 0


def _cmd_critical_rate(args) -> int:
    if args.order < 2:
        raise UsageError(
            "critical-rate needs a field order of at least 2: the overlap of "
            "a linear field decays continuously and never reaches zero, so "
            "there is no collapse transition to locate"
        )
    heuristic = critical_rate_heuristic(args.power, args.sigma_sq)
    if args.bracket is not None:
        lo, hi = _parse_bracket(args.bracket)
    else:
        lo, hi = 0.8 * heuristic, 1.3 * heuristic
    cfg = make_config(
        rate=1.0, sigma_sq=args.sigma_sq, power=args.power, order=args.order
    )
    located = locate_critical_rate(cfg, lo, hi, tol=args.tol)
    with _open_out(args.out) as fh:
        _emit_header(
            fh,
            "critical-rate",
            {
                "lambda": args.order,
                "power": args.power,
                "sigma_sq": args.sigma_sq,
                "bracket": f"{lo}:{hi}",
                "tol": args.tol,
            },
        )
        fh.write("located,heuristic,difference\n")
        fh.write(f"{located:.17g},{heuristic:.17g},{located - heuristic:.17g}\n")
    return 0


def _codec_config(args, k: int) -> CodecConfig:
    return CodecConfig(
        n=args.n,
        k=k,
        k_tilde=args.k_tilde,
        order=args.order,
        power=args.power,
        sigma_b_sq=args.sigma_b_sq,
        sigma_e_sq=args.sigma_e_sq,
        field_seed=args.field_seed,
        perm_seed=args.perm_seed,
        key_seed=args.key_seed,
        noise_seed=args.noise_seed,
        allow_low_order=args.allow_low_order,
    )


def _cmd_simulate(args) -> int:
    if args.at_secrecy_capacity:
        if args.k is not None:
            raise UsageError("--k and --at-secrecy-capacity are mutually exclusive")
        params = WiretapParams(args.power, args.sigma_b_sq, args.sigma_e_sq)
        cap = secrecy_capacity(params)
        if cap <= 0.0:
            raise UsageError(
                "secrecy capacity is zero for these channels; cannot derive k"
            )
        k = int(math.floor(args.n * cap / LOG2))
        if k < 1:
            raise UsageError(
                f"derived k = floor(n * C_S / log 2) = {k}; increase n"
            )
        derivation = (
            f"k = floor(n * C_S / log 2) = floor({args.n} * {cap:.12g} / log 2) = {k}"
        )
    elif args.k is not None:
        k, derivation = args.k, None
    else:
        raise UsageError("one of --k or --at-secrecy-capacity is required")

    cfg = _codec_config(args, k)
    report = run_experiment(
        cfg,
        args.trials,
        freeze_field=args.freeze_field,
        freeze_plan=args.freeze_plan,
    )
    with _open_out(args.out) as fh:
        if derivation is not None:
            fh.write(f"# derived: {derivation}\n")
        write_report(report, fh)
    return 0


def _cmd_leakage(args) -> int:
    cfg = _codec_config(args, args.k)
    fld = _trial_field(cfg, 0)
    plan = _trial_plan(cfg, 0)
    estimate = estimate_leakage(cfg, fld, plan, args.samples)
    div = _unit_divisor(args.units)
    with _open_out(args.out) as fh:
        _emit_header(
            fh,
            "leakage",
            {
                "n": cfg.n,
                "k": cfg.k,
                "k_tilde": cfg.k_tilde,
                "lambda": cfg.order,
                "power": cfg.power,
                "sigma_e_sq": cfg.sigma_e_sq,
                "samples": args.samples,
                "realizations": args.realizations,
                "field_seed": cfg.field_seed,
                "perm_seed": cfg.perm_seed,
                "key_seed": cfg.key_seed,
                "noise_seed": cfg.noise_seed,
                "allow_low_order": cfg.allow_low_order,
                "units": args.units,
            },
        )
        fh.write("quantity,estimate,standard_error\n")
        fh.write(
            f"leakage,{estimate.leakage / div:.17g},{estimate.leakage_se / div:.17g}\n"
        )
        fh.write(
            f"mi_all_symbols,{estimate.mi_all_symbols / div:.17g},"
            f"{estimate.mi_all_symbols_se / div:.17g}\n"
        )
        fh.write(
            f"mi_key_given_msg,{estimate.mi_key_given_msg / div:.17g},"
            f"{estimate.mi_key_given_msg_se / div:.17g}\n"
        )
        fh.write(f"chain_residual,{estimate.chain_residual / div:.17g},0\n")
        if args.realizations > 1:
            mean, se = average_leakage_over_realizations(
                cfg, args.samples, args.realizations
            )
            fh.write(
                f"leakage_avg_over_realizations,{mean / div:.17g},{se / div:.17g}\n"
            )
    return 0


def _cmd_field_check(args) -> int:
    if args.k_tot % 4 != 0:
        raise UsageError(
            f"--k-tot must be a multiple of 4 so the overlap grid "
            f"(-1,-0.5,0,0.5,1) is realizable, got {args.k_tot}"
        )
    if args.n_out < 2:
        raise UsageError("--n-out must be >= 2 so cross-output covariance is testable")
    spec = FieldSpec(
        n_out=args.n_out,
        dim=args.k_tot,
        order=args.order,
        power=args.power,
        seed=args.field_seed,
    )
    s1 = np.ones(args.k_tot)
    overlaps = [-1.0, -0.5, 0.0, 0.5, 1.0]
    probes = []
    for u in overlaps:
        s2 = np.ones(args.k_tot)
        n_flip = round((1.0 - u) / 2.0 * args.k_tot)
        s2[:n_flip] = -1.0
        probes.append(s2)
    results = covariance_probe(spec, s1, probes, args.fields)
    with _open_out(args.out) as fh:
        _emit_header(
            fh,
            "field-check",
            {
                "k_tot": args.k_tot,
                "lambda": args.order,
                "power": args.power,
                "n_out": spec.n_out,
                "fields": args.fields,
                "field_seed": args.field_seed,
            },
        )
        fh.write("overlap,theory,empirical,se,cross_empirical,cross_se\n")
        for u, (mean_same, se_same, mean_cross, se_cross) in zip(overlaps, results):
            theory = args.power * u**args.order
            fh.write(
                f"{u:.17g},{theory:.17g},{mean_same:.17g},{se_same:.17g},"
                f"{mean_cross:.17g},{se_cross:.17g}\n"
            )
    return 0


def _add_seed_flags(parser) -> None:
    parser.add_argument("--field-seed", type=int, default=0)
    parser.add_argument("--perm-seed", type=int, default=1)
    parser.add_argument("--key-seed", type=int, default=2)
    parser.add_argument("--noise-seed", type=int, default=3)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfwiretap",
        description=(
            "Phase-transition solver and desk-scale wiretap codec for "
            "strictly nonlinear Gaussian random fields"
        ),
    )
    parser.add_argument(
        "--config", default=None, help="key=value config file; flags override it"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    scan = sub.add_parser("replica-scan", help="overlap and info rate vs rate")
    scan.add_argument("--lambda", dest="order", type=int, default=3)
    scan.add_argument("--power", type=float, default=1.0)
    scan.add_argument("--sigma-sq", type=float, default=0.1)
    scan.add_argument("--rates", required=True, help="lo:hi:step")
    scan.add_argument("--grid-step", type=float, default=1e-3)
    scan.add_argument("--refine-tol", type=float, default=1e-10)
    scan.add_argument("--units", choices=("nats", "bits"), default="nats")
    scan.add_argument("--out", default="-")
    scan.set_defaults(func=_cmd_replica_scan)

    crit = sub.add_parser("critical-rate", help="locate the overlap collapse rate")
    crit.add_argument("--lambda", dest="order", type=int, default=3)
    crit.add_argument("--power", type=float, default=1.0)
    crit.add_argument("--sigma-sq", type=float, default=0.1)
    crit.add_argument("--bracket", default=None, help="lo:hi (default around heuristic)")
    crit.add_argument("--tol", type=float, default=1e-4)
    crit.add_argument("--out", default="-")
    crit.set_defaults(func=_cmd_critical_rate)

    sim = sub.add_parser("simulate", help="end-to-end Monte Carlo trials")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--k", type=int, default=None)
    sim.add_argument("--k-tilde", type=int, default=None)
    sim.add_argument("--lambda", dest="order", type=int, default=3)
    sim.add_argument("--power", type=float, default=1.0)
    sim.add_argument("--sigma-b-sq", type=float, required=True)
    sim.add_argument("--sigma-e-sq", type=float, required=True)
    sim.add_argument("--trials", type=int, default=100)
    sim.add_argument("--freeze-field", action="store_true")
    sim.add_argument("--freeze-plan", action="store_true")
    sim.add_argument("--allow-low-order", action="store_true")
    sim.add_argument(
        "--at-secrecy-capacity",
        action="store_true",
        help="derive k = floor(n * C_S / log 2) instead of --k",
    )
    sim.add_argument("--out", default="-")
    _add_seed_flags(sim)
    sim.set_defaults(func=_cmd_simulate)

    leak = sub.add_parser("leakage", help="eavesdropper mutual-information estimates")
    leak.add_argument("--n", type=int, required=True)
    leak.add_argument("--k", type=int, required=True)
    leak.add_argument("--k-tilde", type=int, default=None)
    leak.add_argument("--lambda", dest="order", type=int, default=3)
    leak.add_argument("--power", type=float, default=1.0)
    leak.add_argument("--sigma-b-sq", type=float, default=0.1)
    leak.add_argument("--sigma-e-sq", type=float, required=True)
    leak.add_argument("--samples", type=int, default=2000)
    leak.add_argument(
        "--realizations",
        type=int,
        default=1,
        help="also average the leakage over this many resampled (field, plan) pairs",
    )
    leak.add_argument("--allow-low-order", action="store_true")
    leak.add_argument("--units", choices=("nats", "bits"), default="nats")
    leak.add_argument("--out", default="-")
    _add_seed_flags(leak)
    leak.set_defaults(func=_cmd_leakage)

    check = sub.add_parser("field-check", help="empirical vs theoretical covariance")
    check.add_argument("--k-tot", type=int, default=8)
    check.add_argument("--lambda", dest="order", type=int, default=3)
    check.add_argument("--power", type=float, default=1.0)
    check.add_argument("--n-out", type=int, default=2)
    check.add_argument("--fields", type=int, default=20000)
    check.add_argument("--field-seed", type=int, default=0)
    check.add_argument("--out", default="-")
    check.set_defaults(func=_cmd_field_check)

    return parser


def _apply_config_file(parser, argv):
    """Merge config-file values under the subcommand's section; explicit
    flags override them."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise UsageError("--config requires a path")
    path = argv[idx + 1]
    stripped = argv[:idx] + argv[idx + 2 :]
    if not stripped:
        raise UsageError("a subcommand is required")
    section = stripped[0]
    ini = configparser.ConfigParser()
    read = ini.read(path)
    if not read:
        raise UsageError(f"cannot read config file {path!r}")
    extra: list[str] = []
    if ini.has_section(section):
        for key, value in ini.items(section):
            flag = "--" + key.replace("_", "-")
            if flag in stripped:
                continue
            if value.strip().lower() in ("true", "yes", "on"):
                extra.append(flag)
            elif value.strip().lower() in ("false", "no", "off"):
                continue
            else:
                extra.extend([flag, value])
    return [section] + extra + stripped[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"gfwiretap: usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetError as exc:
        # name the size flags of the subcommand that ran
        if args.subcommand == "field-check":
            hint = "lower --k-tot, --lambda or --n-out"
        else:
            hint = "lower n, k, or k_tilde"
        print(f"gfwiretap: resource budget exceeded: {exc} ({hint})", file=sys.stderr)
        return RESOURCE_ERROR
    except (BracketError, NumericalError) as exc:
        print(f"gfwiretap: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"gfwiretap: usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
