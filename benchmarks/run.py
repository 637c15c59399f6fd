"""gfwiretap benchmark: one workload per process, one Python thread.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload collapse_scan --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's passes run untraced for ``--seconds``
seconds and the end-to-end metrics are reported.  With ``--trace 1`` fixed
pass pairs run untraced then traced, followed by one in-process ``cli.main``
call per subcommand, and the per-layer metrics are reported together with
the tracing overhead; the spans are written to
``.bench_trace/<workload>-seed<seed>.jsonl``.

Every op output is checked (see ``workloads.py``), and so is the exact
decoder against a brute-force oracle.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it hold the run record and details.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402

#: Pass pairs (untraced, traced) in a traced run.
TRACE_PAIRS = 2
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: Seconds each of them times the reference kernel for, after its set-up.
SETUP_REF_S = 0.02


def import_package():
    """Import ``gfwiretap`` from this checkout's ``src``, never elsewhere."""
    init = os.path.join(SRC, "gfwiretap", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"benchmark: no package source at {init}; run from a full checkout")
    os.environ.pop("GFWIRETAP_THREADS", None)
    sys.path.insert(0, SRC)
    import gfwiretap

    if os.path.dirname(os.path.abspath(gfwiretap.__file__)) != os.path.dirname(init):
        sys.exit(f"benchmark: imported gfwiretap from {gfwiretap.__file__}, not {SRC}")
    return gfwiretap


# ----------------------------------------------------------------------------
# Run record


def blas_info() -> dict:
    """BLAS vendor, version and thread count as loaded by numpy."""
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    pattern = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*blas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, if it is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "gfwiretap", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(args, gw) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "gfwiretap": gw.__version__,
        "blas": blas_info(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "gfwiretap_threads": os.environ.get("GFWIRETAP_THREADS", "unset"),
    }


# ----------------------------------------------------------------------------
# Running ops


class Outcomes:
    """Count of attempted ops and the reason each failed op failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)


def timed(workload, op, tracer=None, op_id=None):
    """``(op, output, error, latency_s)`` of one op; an op that raises
    yields its error instead of an output."""
    started = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(op)
        else:
            out = tracer.run_op(op_id, workload.run, op)
        err = None
    except Exception as exc:  # counted as a failed op, never re-raised
        out, err = None, f"{type(exc).__name__}: {exc}"
    return op, out, err, time.perf_counter() - started


def check_results(workload, results, outcomes: Outcomes) -> str:
    """Check every op output; return a SHA-256 over the exact bits of the
    scientific values of the outputs that passed."""
    digest = hashlib.sha256()
    for op, out, err, _ in results:
        if err is not None:
            outcomes.add(err)
            continue
        try:
            reason = workload.check(op, out)
        except Exception as exc:  # a malformed output fails its op
            reason = f"check raised {type(exc).__name__}: {exc}"
        outcomes.add(reason)
        if reason is None:
            for value in workload.values(op, out):
                digest.update(float(value).hex().encode() + b";")
    return digest.hexdigest()


def check_oracle(oracle, seed: int, outcomes: Outcomes) -> float | None:
    """Check the exact decoder on the oracle's pairs; return the mean
    effective-candidate fraction at the receiver's noise."""
    failures, ess = oracle.run(seed)
    for j in range(oracle.pairs):
        outcomes.add(failures[j] if j < len(failures) else None)
    return statistics.fmean(ess) if ess else None


def percentile_with_tail(latencies, q: float):
    """The q-quantile, or None when fewer than 10 samples lie beyond it."""
    if len(latencies) * (1.0 - q) < 10:
        return None
    return statistics.quantiles(latencies, n=100, method="inclusive")[round(q * 100) - 1]


def measure(workload, seed: int, seconds: float, oracle, setup_repeats: int) -> dict:
    """The untraced run: passes until ``seconds`` have elapsed.

    Every op is bracketed by reference-kernel timings, and the reported
    times are scaled to the reference speed (see ``speed.py``); the raw
    times are kept in the details.
    """
    first_op_at = time.perf_counter()
    gauge = speed.SpeedGauge()
    results, raw, scaled, walls, raw_walls = [], [], [], [], []
    p = 0
    while True:
        first = len(results)
        for op in workload.ops(seed, p):
            results.append(timed(workload, op))
            raw.append(results[-1][3])
            scaled.append(gauge.scale(raw[-1]))
        walls.append(sum(scaled[first:]))
        raw_walls.append(sum(raw[first:]))
        p += 1
        if time.perf_counter() - first_op_at >= seconds:
            break
    elapsed = time.perf_counter() - first_op_at

    outcomes = Outcomes()
    check_results(workload, results, outcomes)
    ess_frac = check_oracle(oracle, seed, outcomes)

    setup_s, raw_setup_s = setup_time(workload.name, seed, setup_repeats)
    p90 = percentile_with_tail(scaled, 0.9)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    detail = {
        "passes": p,
        "ops": len(results),
        "measured_s": elapsed,
        "op_p50_ms_samples": len(scaled),
        "op_p90_ms": None if p90 is None else p90 * 1e3,
        "op_p90_ms_samples": len(scaled) if p90 is not None else 0,
        "error_frac": len(outcomes.failures) / outcomes.attempted,
        "ess_frac": ess_frac,
        "speed_factor_quartiles": statistics.quantiles(gauge.factors, n=4)
        if len(gauge.factors) > 1 else gauge.factors,
        "raw_setup_s": raw_setup_s,
        "raw_process_setup_s": first_op_at - T_START,
        "raw_wall_s": statistics.median(raw_walls),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
    }
    return {"metrics": metrics, "detail": detail, "outcomes": outcomes, "ok": True}


def measure_traced(workload, seed: int, oracle, trace_dir=None) -> dict:
    """The traced run: every op of ``TRACE_PAIRS`` passes runs untraced and
    then traced, back to back; then one ``cli.main`` call per subcommand."""
    import tracer as tracing
    import workloads
    from gfwiretap import cli, numerics

    tr = tracing.Tracer()
    outcomes = Outcomes()
    with tr.installed():
        tr.run_op("setup", numerics.default_rule)

    plain, traced = [], []
    for p in range(TRACE_PAIRS):
        for i, op in enumerate(workload.ops(seed, p)):
            plain.append(timed(workload, op))
            with tr.installed():
                traced.append(timed(workload, op, tr, f"{p}.{i}"))
    digests_match = check_results(workload, plain, outcomes) == check_results(
        workload, traced, outcomes
    )
    overhead = sum(r[3] for r in traced) - sum(r[3] for r in plain)

    started = time.perf_counter()
    with tr.installed():
        for argv in workloads.CLI_SMOKE:
            with contextlib.redirect_stdout(io.StringIO()):
                status = tr.run_op("cli", cli.main, list(argv))
            outcomes.add(None if status == 0 else f"cli {argv[0]} exited {status}")
    traced_wall = sum(r[3] for r in traced) + time.perf_counter() - started

    metrics = tracing.layer_metrics(tr, check_oracle(oracle, seed, outcomes) or 0.0)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    # every span's self time lies inside exactly one root span, so the layer
    # self times add up to the root spans; what is left is harness time
    self_sum = sum(tr.layer_self(layer) for layer in tracing.LAYERS) - tr.root_time("setup")
    unattributed = traced_wall - self_sum
    detail = {
        "traced_passes": TRACE_PAIRS,
        "traced_ops": len(traced),
        "digests_match": digests_match,
        "layer_self_sum_s": self_sum,
        "unattributed_s": unattributed,
        "self_sum_within_overhead": abs(unattributed) <= abs(overhead),
        "error_frac": len(outcomes.failures) / outcomes.attempted,
    }
    trace_dir = trace_dir or os.path.join(ROOT, ".bench_trace")
    os.makedirs(trace_dir, exist_ok=True)
    tr.write(os.path.join(trace_dir, f"{workload.name}-seed{seed}.jsonl"))
    return {"metrics": metrics, "detail": detail, "outcomes": outcomes, "ok": digests_match}


# ----------------------------------------------------------------------------
# Set-up time


def setup_probe(workload_name: str, seed: int) -> None:
    """What a run does before its first timed op, in a fresh process."""
    import workloads
    from gfwiretap import numerics

    numerics.default_rule()
    workloads.WORKLOADS[workload_name].ops(seed, 0)
    print("ready", flush=True)
    # the speed this process ran at, timed on its own CPU after the fact
    print(speed.reference_time(SETUP_REF_S), flush=True)


def setup_time(workload_name: str, seed: int, repeats: int) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to its first op, scaled
    to the reference speed by the probe's own reference timing, and
    unscaled."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            raw.append(time.perf_counter() - started)
            reference = proc.stdout.read()
            if proc.wait(timeout=60) != 0 or ready.strip() != "ready":
                raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        scaled.append(raw[-1] * speed.REF_S / float(reference))
    return statistics.median(scaled), statistics.median(raw)


# ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    gw = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workload = workloads.WORKLOADS[args.workload]
    oracle = workloads.OracleCheck()
    record = run_record(args, gw)
    threads = record["blas"]["threads"]
    if threads is not None and threads > (os.cpu_count() or 1):
        print(f"benchmark: BLAS runs {threads} threads on {os.cpu_count()} CPUs", file=sys.stderr)
        return 2

    if args.trace:
        result = measure_traced(workload, args.seed, oracle)
    else:
        result = measure(workload, args.seed, args.seconds, oracle, SETUP_REPEATS)
    outcomes = result["outcomes"]
    result["detail"]["failures"] = outcomes.failures[:5]
    print(json.dumps({"run_record": record}))
    print(json.dumps({"detail": result["detail"]}))
    correct = result["ok"] and not outcomes.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcomes.attempted,
                "failed": len(outcomes.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
