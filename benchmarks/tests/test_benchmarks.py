"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from gfwiretap import codec, simulate  # noqa: E402

TINY = {
    "collapse_scan": dataclasses.replace(workloads.WORKLOADS["collapse_scan"], n_rates=2, tol=2e-3),
    "decode_fresh": dataclasses.replace(
        workloads.WORKLOADS["decode_fresh"], ops_per_pass=2, n=8, k=2, k_tilde=2
    ),
    "leakage_scan": dataclasses.replace(
        workloads.WORKLOADS["leakage_scan"], ops_per_pass=1, samples=50, n=8, k=2, k_tilde=2
    ),
    "covariance_law": dataclasses.replace(
        workloads.WORKLOADS["covariance_law"], ops_per_pass=1, fields=200, k_tot=4
    ),
}
TINY_ORACLE = workloads.OracleCheck(pairs=2, n=8, dim=4)


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_tiny_workloads_cover_every_declared_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {w["name"] for w in json.load(fh)["workloads"]}
    assert names == set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_is_correct_and_emits_every_end_to_end_metric(name):
    result = run.measure(TINY[name], 3, 0.0, TINY_ORACLE, setup_repeats=1)
    assert result["outcomes"].failures == []
    assert result["detail"]["error_frac"] == 0.0
    metrics = result["metrics"]
    assert {k: unit for k, (_, unit) in metrics.items()} == declared("end_to_end")
    assert all(value > 0.0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_is_correct_and_emits_every_per_layer_metric(name, tmp_path):
    result = run.measure_traced(TINY[name], 3, TINY_ORACLE, trace_dir=str(tmp_path))
    assert result["outcomes"].failures == []
    assert result["detail"]["digests_match"]
    metrics = result["metrics"]
    assert {k: unit for k, (_, unit) in metrics.items()} == declared("per_layer")
    # every layer is exercised, if only by the CLI smoke calls
    assert all(v > 0 for k, (v, _) in metrics.items() if k != "trace.overhead_s")
    spans = (tmp_path / f"{name}-seed3.jsonl").read_text().splitlines()
    assert json.loads(spans[0]).keys() == {"id", "name", "start", "end", "parent", "op"}


def test_ops_depend_only_on_seed_and_pass():
    for w in workloads.WORKLOADS.values():
        assert repr(w.ops(5, 1)) == repr(w.ops(5, 1))
        assert repr(w.ops(5, 1)) != repr(w.ops(6, 1))


def test_oracle_matches_decoder_and_rejects_a_wrong_mean():
    fld, y, sigma_sq = TINY_ORACLE.pair(7, 1)
    mean, ess_frac = workloads.posterior_oracle(fld, y, sigma_sq)
    assert np.max(np.abs(codec.mmse_estimate(fld, y, sigma_sq) - mean)) <= 1e-9
    assert 0.0 < ess_frac <= 1.0


def test_corrupted_posterior_is_counted_in_error_frac(monkeypatch):
    original = codec.mmse_estimate

    def corrupted(*args, **kwargs):
        r = original(*args, **kwargs).copy()
        r[0] = -r[0]
        return r

    monkeypatch.setattr(codec, "mmse_estimate", corrupted)
    monkeypatch.setattr(simulate, "mmse_estimate", corrupted)
    result = run.measure(TINY["decode_fresh"], 3, 0.0, TINY_ORACLE, setup_repeats=1)
    assert result["detail"]["error_frac"] > 0.0
    assert any("oracle pair" in f for f in result["outcomes"].failures)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "decode_fresh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
