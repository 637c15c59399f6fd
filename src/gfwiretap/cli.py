"""Command-line entry point, and the one writer of its output files.

Subcommands: replica-scan, critical-rate, simulate, leakage, field-check.
Output is plain comma-delimited text with '#'-prefixed header lines carrying
the full effective configuration and a '# versions:' line (package and
numpy), so re-running with the header's values under those versions
reproduces the file byte-for-byte apart from the '# generated:' line.
Every subcommand writes its file through ``_write_output``: floats to 17
significant digits, any other cell as ``str``.
Every flag of the subcommand but --out is echoed as one '# param' line,
sorted by name, with the value the run used: critical-rate's default bracket
as lo:hi, the resolved k_tilde, and a k derived by simulate's
--at-secrecy-capacity as k with at_secrecy_capacity = False.

Exit statuses: 0 success, 2 usage error, 3 resource/budget error,
4 numerical failure.  Science parameters come only from flags or the config
file.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import re
import sys
import time

import numpy as np

from ._version import versions_line
from .channel import LOG2, critical_rate_heuristic, secrecy_capacity
from .codec import CodecConfig
from .errors import BracketError, BudgetError, NumericalError
from .field import FieldSpec, _check_budget, covariance_probe
from .replica import locate_critical_rate, make_config, scan_rates
from .simulate import (
    _check_leakage_size,
    _mean_and_se,
    _trial_field,
    _trial_plan,
    estimate_leakage,
    run_experiment,
)

USAGE_ERROR = 2
RESOURCE_ERROR = 3
NUMERICAL_ERROR = 4

#: Most points a --rates grid may hold, counted before any point is built.
_MAX_RATE_POINTS = 10**6


class UsageError(Exception):
    pass


def _split_floats(text: str, what: str, form: str) -> list[float]:
    """Parse ``text`` as the colon-separated finite floats of ``form``."""
    parts = text.split(":")
    if len(parts) != form.count(":") + 1:
        raise UsageError(f"{what} must be {form}, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{what} values must be numeric, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{what} values must be finite, got {text!r}")
    return values


def _parse_range(text: str) -> list[float]:
    """Parse 'lo:hi:step' into a grid, inclusive of both ends when step
    divides the span within 1e-12."""
    lo, hi, step = _split_floats(text, "range", "lo:hi:step")
    if step <= 0.0:
        raise UsageError(f"range step must be positive, got {step}")
    if lo > hi:
        raise UsageError(f"range is inverted: lo={lo} > hi={hi}")
    # an overflowing span is inf, which no budget admits
    span = (hi - lo) / step + 1e-12
    if span >= _MAX_RATE_POINTS:
        raise BudgetError(
            f"--rates {text!r} would hold {span + 1:.6g} points; "
            f"budget is {_MAX_RATE_POINTS}"
        )
    count = int(math.floor(span))
    points = [lo + i * step for i in range(count + 1)]
    if abs(points[-1] - hi) <= 1e-12:
        points[-1] = hi
    return points


def _parse_bracket(text: str) -> tuple[float, float]:
    lo, hi = _split_floats(text, "bracket", "lo:hi")
    if not lo < hi:
        raise UsageError(f"bracket is inverted or degenerate: {text!r}")
    return lo, hi


def _params(args, **resolved) -> dict:
    """The '# param' values of a run, sorted by name.

    Every flag of the subcommand is named after its long option (``lambda``
    for ``--lambda``, whose dest is ``order``).  ``resolved`` replaces the
    parsed value of a flag whose effective value the command worked out
    itself, so the header re-runs exactly what ran.
    """
    values = {
        dest: value
        for dest, value in vars(args).items()
        if dest not in ("func", "out", "config", "subcommand")
    }
    values.update(resolved)
    named = {("lambda" if dest == "order" else dest): v for dest, v in values.items()}
    return dict(sorted(named.items()))


def _cell(value) -> str:
    """One output cell: a float to 17 significant digits, anything else as str."""
    return f"{value:.17g}" if isinstance(value, (float, np.floating)) else str(value)


def _write_output(
    args, columns: str, rows, *, title=None, resolved=None,
    preface=(), notes=(), generated=(), footer=(),
) -> None:
    """Write a subcommand's output file to ``args.out`` ('-' for stdout).

    The header is the ``preface`` lines, the title (``gfwiretap <title> v1``,
    the subcommand's name unless given), the ``versions:`` line, the
    ``param`` lines of :func:`_params`, the ``notes`` and the ``generated:``
    timestamp followed by the ``generated`` fields.  Then come the column
    line, one line of :func:`_cell` values per row, and the ``footer``
    lines.  Header and footer lines are written as '#' comments.
    """
    params = _params(args, **(resolved or {}))
    stamp = " ".join([time.strftime("%Y-%m-%dT%H:%M:%S%z"), *generated])
    header = [*preface, f"gfwiretap {title or args.subcommand} v1", versions_line()]
    header += [f"param {name} = {value}" for name, value in params.items()]
    header += [*notes, f"generated: {stamp}"]
    lines = [f"# {line}" for line in header] + [columns]
    lines += [",".join(map(_cell, row)) for row in rows]
    lines += [f"# {line}" for line in footer]
    text = "".join(line + "\n" for line in lines)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _cmd_replica_scan(args) -> int:
    rates = _parse_range(args.rates)
    if rates[0] <= 0.0:
        raise UsageError(f"rates must be positive, got {rates[0]}")
    div = LOG2 if args.units == "bits" else 1.0
    cfg = make_config(
        rate=rates[0], sigma_sq=args.sigma_sq, power=args.power, order=args.order
    )
    rows = [
        (rate, sol.m_star, sol.info_rate / div, sol.energy_at_0 / div,
         sol.energy_at_1 / div, sol.fixed_point_residual)
        for rate, sol in scan_rates(cfg, rates)
    ]
    _write_output(
        args, "rate,m_star,info_rate,energy_at_0,energy_at_1,fixed_point_residual", rows
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
    _write_output(
        args,
        "located,heuristic,difference",
        [(located, heuristic, located - heuristic)],
        resolved={"bracket": f"{lo}:{hi}"},
    )
    return 0


def _codec_config(args, k: int) -> CodecConfig:
    """The config of simulate's and leakage's flags, one flag per field of
    the same name (``order`` is --lambda), with ``k`` as given."""
    names = [f.name for f in dataclasses.fields(CodecConfig)]
    values = {name: getattr(args, name) for name in names}
    return CodecConfig(**{**values, "k": k})


def _cmd_simulate(args) -> int:
    if args.at_secrecy_capacity:
        if args.k is not None:
            raise UsageError("--k and --at-secrecy-capacity are mutually exclusive")
        cap = secrecy_capacity(args.power, args.sigma_b_sq, args.sigma_e_sq)
        if cap <= 0.0:
            raise UsageError(
                "secrecy capacity is zero for these channels; cannot derive k"
            )
        k = int(math.floor(args.n * cap / LOG2))
        if k < 1:
            raise UsageError(
                f"derived k = floor(n * C_S / log 2) = {k}; increase n"
            )
        derivation = [
            f"derived: k = floor(n * C_S / log 2) = "
            f"floor({args.n} * {cap:.12g} / log 2) = {k}"
        ]
    elif args.k is not None:
        k, derivation = args.k, []
    else:
        raise UsageError("one of --k or --at-secrecy-capacity is required")

    cfg = _codec_config(args, k)
    report = run_experiment(
        cfg,
        args.trials,
        freeze_field=args.freeze_field,
        freeze_plan=args.freeze_plan,
    )
    columns = "trial_id,message,decoded,bit_errors,flip_fraction,overlap,overlap_sign"
    rows = [
        [getattr(t, name) for name in columns.split(",")] + [int(t.bound_ok)]
        for t in report.trials
    ]
    _write_output(
        args,
        columns + ",bound_ok",
        rows,
        title="simulation report",
        # the derived k is recorded as --k, so a re-run takes it as given
        resolved={"k": k, "k_tilde": cfg.k_tilde, "at_secrecy_capacity": False},
        preface=derivation,
        notes=[
            f"derived: k_tilde_overridden = {cfg.k_tilde_overridden}",
            f"rng: {report.rng_provenance}",
        ],
        generated=[f"wall_clock_s={report.wall_clock_s:.3f}"],
        footer=[
            f"summary message_error_rate = {_cell(report.message_error_rate)}",
            f"summary mean_flip_fraction = {_cell(report.mean_flip_fraction)} "
            f"se = {_cell(report.mean_flip_fraction_se)}",
            f"summary mean_overlap = {_cell(report.mean_overlap)} "
            f"se = {_cell(report.mean_overlap_se)}",
        ],
    )
    return 0


def _cmd_leakage(args) -> int:
    if args.realizations < 1:
        raise UsageError(f"--realizations must be >= 1, got {args.realizations}")
    cfg = _codec_config(args, args.k)
    _check_leakage_size(cfg, args.samples)
    estimates = [
        estimate_leakage(cfg, _trial_field(cfg, r), _trial_plan(cfg, r), args.samples)
        for r in range(args.realizations)
    ]
    estimate = estimates[0]
    rows = [
        ("leakage", estimate.leakage, estimate.leakage_se),
        ("mi_all_symbols", estimate.mi_all_symbols, estimate.mi_all_symbols_se),
        ("mi_key_given_msg", estimate.mi_key_given_msg, estimate.mi_key_given_msg_se),
        ("chain_residual", estimate.chain_residual, 0),
    ]
    if args.realizations > 1:
        # the leakage of each public (field, plan) realization, averaged with
        # its between-realization standard error
        mean, se = _mean_and_se(np.array([e.leakage for e in estimates]))
        rows.append(("leakage_avg_over_realizations", mean, se))
    div = LOG2 if args.units == "bits" else 1.0
    _write_output(
        args,
        "quantity,estimate,standard_error",
        [(name, value / div, se / div) for name, value, se in rows],
        resolved={"k_tilde": cfg.k_tilde},
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
    # before the k_tot-long probe vectors are built
    _check_budget(spec)
    # the probe at overlap u flips the first (1 - u) / 2 of s1's coordinates
    s1 = np.ones(args.k_tot)
    overlaps = [-1.0, -0.5, 0.0, 0.5, 1.0]
    coords = np.arange(args.k_tot)
    probes = [np.where(coords < round((1.0 - u) / 2.0 * args.k_tot), -1.0, 1.0) for u in overlaps]
    results = covariance_probe(spec, s1, probes, args.fields)
    if not np.isfinite(results).all():
        raise NumericalError(f"covariance statistics overflow at --power {args.power!r}")
    rows = [
        (u, args.power * u**args.order, *stats) for u, stats in zip(overlaps, results)
    ]
    _write_output(args, "overlap,theory,empirical,se,cross_empirical,cross_se", rows)
    return 0


def _subcommand(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """A subcommand parser with the flags every subcommand takes."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--lambda", dest="order", type=int, default=3)
    parser.add_argument("--power", type=float, default=1.0)
    parser.add_argument("--out", default="-")
    parser.set_defaults(func=func)
    return parser


def _add_codec_flags(parser, k_required: bool, sigma_b_sq: float | None) -> None:
    """The code and channel flags of simulate and leakage; ``--sigma-b-sq``
    is required when ``sigma_b_sq`` is None."""
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=k_required, default=None)
    parser.add_argument("--k-tilde", type=int, default=None)
    parser.add_argument(
        "--sigma-b-sq", type=float, required=sigma_b_sq is None, default=sigma_b_sq
    )
    parser.add_argument("--sigma-e-sq", type=float, required=True)
    parser.add_argument("--allow-low-order", action="store_true")
    for stream, seed in (("field", 0), ("perm", 1), ("key", 2), ("noise", 3)):
        parser.add_argument(f"--{stream}-seed", type=int, default=seed)


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

    scan = _subcommand(
        sub, "replica-scan", _cmd_replica_scan, "overlap and info rate vs rate"
    )
    scan.add_argument("--sigma-sq", type=float, default=0.1)
    scan.add_argument("--rates", required=True, help="lo:hi:step")
    scan.add_argument("--units", choices=("nats", "bits"), default="nats")

    crit = _subcommand(
        sub, "critical-rate", _cmd_critical_rate, "locate the overlap collapse rate"
    )
    crit.add_argument("--sigma-sq", type=float, default=0.1)
    crit.add_argument("--bracket", default=None, help="lo:hi (default around heuristic)")
    crit.add_argument("--tol", type=float, default=1e-4)

    sim = _subcommand(sub, "simulate", _cmd_simulate, "end-to-end Monte Carlo trials")
    _add_codec_flags(sim, k_required=False, sigma_b_sq=None)
    sim.add_argument("--trials", type=int, default=100)
    sim.add_argument("--freeze-field", action="store_true")
    sim.add_argument("--freeze-plan", action="store_true")
    sim.add_argument(
        "--at-secrecy-capacity",
        action="store_true",
        help="derive k = floor(n * C_S / log 2) instead of --k",
    )

    leak = _subcommand(
        sub, "leakage", _cmd_leakage, "eavesdropper mutual-information estimates"
    )
    _add_codec_flags(leak, k_required=True, sigma_b_sq=0.1)
    leak.add_argument("--samples", type=int, default=2000)
    leak.add_argument(
        "--realizations",
        type=int,
        default=1,
        help="also average the leakage over this many resampled (field, plan) pairs",
    )
    leak.add_argument("--units", choices=("nats", "bits"), default="nats")

    check = _subcommand(
        sub, "field-check", _cmd_field_check, "empirical vs theoretical covariance"
    )
    check.add_argument("--k-tot", type=int, default=8)
    check.add_argument("--n-out", type=int, default=2)
    check.add_argument("--fields", type=int, default=20000)
    check.add_argument("--field-seed", type=int, default=0)

    return parser


def _apply_config_file(argv):
    """Merge config-file values under the subcommand's section; explicit
    flags override them."""
    # a pre-parse finds --config as argparse would: '--config=PATH' and
    # abbreviations such as '--conf PATH' included
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        known, stripped = pre.parse_known_args(argv)
    except argparse.ArgumentError:
        raise UsageError("--config requires a path") from None
    if known.config is None:
        return argv
    if not stripped:
        raise UsageError("a subcommand is required")
    section = stripped[0]
    ini = configparser.ConfigParser()
    if not ini.read(known.config):
        raise UsageError(f"cannot read config file {known.config!r}")
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


def _attach_negative_values(argv):
    """Write ``--flag -1:2`` as ``--flag=-1:2``: argparse takes a token that
    starts with '-' for an option unless it is a plain negative number."""
    joined: list[str] = []
    for token in argv:
        if joined and re.fullmatch(r"--[^=]+", joined[-1]) and re.match(r"-[\d.]", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _attach_negative_values(_apply_config_file(argv))
        args = parser.parse_args(argv)
        # runs check their results, so numpy's warnings would only repeat that
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"gfwiretap: usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetError as exc:
        # name the size flags of the subcommand that ran, or its sample
        # count when the error names that
        if "n_fields=" in str(exc):
            hint = "lower --fields"
        elif "n_samples=" in str(exc):
            hint = "lower --samples"
        elif "field order=" in str(exc):
            hint = "lower --lambda"
        elif args.subcommand == "replica-scan":
            hint = "raise the --rates step or narrow its span"
        elif args.subcommand == "field-check":
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
