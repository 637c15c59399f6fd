import argparse
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gfwiretap
from gfwiretap import cli, numerics, replica
from gfwiretap import field as field_module, simulate as simulate_module
from gfwiretap.cli import _build_parser, main
from gfwiretap.simulate import estimate_leakage


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def strip_generated(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("# generated:"))


class TestReplicaScan:
    def test_matches_reference_curve_points(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "replica-scan", "--lambda", "1", "--power", "1", "--sigma-sq", "0.1",
            "--rates", "2.0:6.0:4.0",
        )
        assert code == 0
        rows = data_rows(out)
        assert rows[0].startswith("rate,m_star,info_rate")
        first = rows[1].split(",")
        last = rows[2].split(",")
        assert float(first[2]) == pytest.approx(1.07327015988218, abs=1e-5)
        assert float(last[2]) == pytest.approx(1.16293490921312, abs=1e-5)

    def test_rows_are_the_parsed_grid_solved_once_each(self, capsys):
        code, out, _ = run_cli(capsys, "replica-scan", "--rates", "1.0:1.3:0.1")
        assert code == 0
        rows = [r.split(",") for r in data_rows(out)[1:]]
        assert len(rows) == 4
        assert rows[-1][0] == "1.3"
        for row in rows:
            sol = replica.solve_overlap(replica.make_config(rate=float(row[0]), order=3))
            expected = (
                float(row[0]), sol.m_star, sol.info_rate, sol.energy_at_0,
                sol.energy_at_1, sol.fixed_point_residual,
            )
            assert row == [f"{v:.17g}" for v in expected]

    def test_inverted_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "replica-scan", "--rates", "2:1:0.1")
        assert code == 2
        assert "inverted" in err

    def test_nonpositive_step_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "replica-scan", "--rates", "1:2:0")
        assert code == 2
        assert "step must be positive" in err

    def test_overflowing_grid_is_budget_error(self, capsys):
        # (hi - lo) / step overflows to inf; once an OverflowError traceback
        code, out, err = run_cli(capsys, "replica-scan", "--rates", "0:1e308:1e-308")
        assert (code, out) == (3, "")
        assert "--rates '0:1e308:1e-308' would hold inf points" in err
        assert "(raise the --rates step or narrow its span)" in err

    def test_grid_over_the_point_cap_is_refused_before_building(self, capsys, monkeypatch):
        # the cap is patched small: a grid over the real one holds a million floats
        monkeypatch.setattr(cli, "_MAX_RATE_POINTS", 10)
        monkeypatch.setattr(cli, "scan_rates", lambda *a: pytest.fail("scanned"))
        assert len(cli._parse_range("0.1:1:0.1")) == 10
        code, _, err = run_cli(capsys, "replica-scan", "--rates", "1:2:0.1")
        assert code == 3
        assert "--rates '1:2:0.1' would hold 11 points; budget is 10" in err

    @pytest.mark.parametrize("flag", ["--grid-step", "--refine-tol"])
    def test_solver_resolution_flags_are_gone(self, capsys, flag):
        # every result is computed at replica.GRID_STEP and REFINE_TOL
        with pytest.raises(SystemExit) as exc:
            main(["replica-scan", "--rates", "1:1:1", flag, "1e-3"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_units_bits(self, capsys):
        _, nats, _ = run_cli(capsys, "replica-scan", "--lambda", "3", "--rates", "1:1:1")
        _, bits, _ = run_cli(
            capsys, "replica-scan", "--lambda", "3", "--rates", "1:1:1", "--units", "bits"
        )
        v_nats = float(data_rows(nats)[1].split(",")[2])
        v_bits = float(data_rows(bits)[1].split(",")[2])
        assert v_bits == pytest.approx(v_nats / math.log(2.0), rel=1e-12)

    def test_reproducible_modulo_timestamp(self, capsys, tmp_path):
        args = ("replica-scan", "--lambda", "3", "--rates", "1.0:1.2:0.1")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert strip_generated(first) == strip_generated(second)

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "replica-scan", "--rates", "1:1:1", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text().startswith("# gfwiretap replica-scan v1")


NON_FINITE_RANGES = [
    (command, f"{flag}=" + ":".join(value if i == slot else v for i, v in enumerate(vals)))
    for command, flag, vals in (
        ("replica-scan", "--rates", ("0.5", "1.0", "0.1")),
        ("critical-rate", "--bracket", ("1.5", "2.0")),
    )
    for slot in range(len(vals))
    for value in ("inf", "-inf", "nan")
]


@pytest.mark.parametrize("command, arg", NON_FINITE_RANGES)
def test_non_finite_range_value_is_usage_error(capsys, command, arg):
    code, out, err = run_cli(capsys, command, arg)
    assert code == 2
    assert out == ""
    assert "values must be finite" in err
    assert "Traceback" not in err


class TestCriticalRate:
    def test_cubic_location(self, capsys):
        code, out, _ = run_cli(capsys, "critical-rate", "--lambda", "3")
        assert code == 0
        located, heuristic, diff = (float(v) for v in data_rows(out)[1].split(","))
        assert heuristic == pytest.approx(1.72971580931865, abs=1e-10)
        assert abs(located - heuristic) <= 0.005
        assert diff == pytest.approx(located - heuristic, abs=1e-12)

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--power", "nan", "power"), ("--power", "inf", "power"),
         ("--sigma-sq", "nan", "sigma_sq"), ("--sigma-sq", "inf", "sigma_sq")],
    )
    def test_non_finite_channel_value_is_refused_by_name(self, capsys, flag, value, name):
        code, _, err = run_cli(capsys, "critical-rate", flag, value)
        assert code == 2
        assert f"{name} must be finite and > 0, got {value}" in err

    def test_linear_is_refused_with_explanation(self, capsys):
        code, _, err = run_cli(capsys, "critical-rate", "--lambda", "1")
        assert code == 2
        assert "never reaches zero" in err

    def test_quadratic_reports_without_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical-rate", "--lambda", "2", "--bracket", "1.5:2.0"
        )
        assert code == 0
        located = float(data_rows(out)[1].split(",")[0])
        assert 1.5 < located < 2.0

    def test_tolerance_below_float_resolution(self, capsys):
        # the bracket halves down to two adjacent floats and stops there
        located = {}
        for tol in ("1e-4", "1e-20"):
            code, out, _ = run_cli(
                capsys, "critical-rate", "--bracket", "1.5:2.0", "--tol", tol
            )
            assert code == 0
            located[tol] = float(data_rows(out)[1].split(",")[0])
        assert abs(located["1e-20"] - located["1e-4"]) <= 1e-4

    @pytest.mark.parametrize("lam", ["6", "8"])
    def test_high_orders_reach_the_zero_regime(self, capsys, lam):
        # from lambda 6 on, m**order vanishes against the energy's ulp near
        # m = 0; the flat stretch there must not displace the zero overlap
        code, out, _ = run_cli(capsys, "critical-rate", "--lambda", lam)
        assert code == 0
        located, heuristic, _ = (float(v) for v in data_rows(out)[1].split(","))
        assert abs(located - heuristic) <= 0.005

    def test_bracket_without_transition_is_numerical_failure(self, capsys):
        # both endpoints are past the collapse, so no regime change exists
        code, _, err = run_cli(
            capsys, "critical-rate", "--lambda", "3", "--bracket", "2.5:3.0"
        )
        assert code == 4
        assert "numerical failure" in err


class TestNumericalFailures:
    """Each numerical failure path exits 4, not 2 (usage)."""

    def test_quadrature_self_check_failure(self, capsys, monkeypatch):
        # the scalar-channel table caches the checked rule's fit, so the
        # patched self-check reaches the solver once both caches are cleared
        numerics.default_rule.cache_clear()
        replica._channel_table.cache_clear()
        # at step 1/4, halving the step moves the log cosh probe by 4e-9
        monkeypatch.setattr(numerics, "RULE_STEP", 0.25)
        try:
            code, _, err = run_cli(capsys, "replica-scan", "--rates", "1:1:1")
        finally:
            numerics.default_rule.cache_clear()
            replica._channel_table.cache_clear()
        assert code == 4
        assert "numerical failure" in err and "convergence check" in err

    def test_non_finite_objective(self, capsys, monkeypatch):
        # the energy takes and returns arrays of overlaps; this one is NaN
        monkeypatch.setattr(replica, "energy", lambda m, cfg: np.full(np.shape(m), np.nan))
        code, _, err = run_cli(capsys, "replica-scan", "--rates", "1:1:1")
        assert code == 4
        assert "numerical failure" in err and "objective is non-finite" in err

    def test_non_finite_integrand(self, capsys, monkeypatch):
        # the integrand is only evaluated while the table is built
        replica._channel_table.cache_clear()
        monkeypatch.setattr(replica, "log_cosh", lambda x: np.full_like(x, np.inf))
        try:
            code, _, err = run_cli(capsys, "replica-scan", "--rates", "1:1:1")
        finally:
            replica._channel_table.cache_clear()
        assert code == 4
        assert "numerical failure" in err and "integrand is non-finite" in err


class TestSimulate:
    def test_basic_run_all_bounds_hold(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "16", "--k", "4", "--k-tilde", "2",
            "--sigma-b-sq", "0.3", "--sigma-e-sq", "1", "--trials", "8",
        )
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 9  # header + 8 trials
        for row in rows[1:]:
            assert row.split(",")[-1] == "1"  # bound_ok

    def test_noiseless_recovers_every_message(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "16", "--k", "4", "--k-tilde", "2",
            "--sigma-b-sq", "1e-12", "--sigma-e-sq", "1", "--trials", "10",
        )
        assert code == 0
        assert "# summary message_error_rate = 0\n" in out

    def test_at_secrecy_capacity_derives_k(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "6", "--at-secrecy-capacity",
            "--sigma-b-sq", "0.1", "--sigma-e-sq", "1", "--trials", "2",
        )
        assert code == 0
        assert out.startswith("# derived: k = floor(n * C_S / log 2)")
        # C_S = C(10) - C(1) = 0.852374; floor(6 * that / log 2) = 7
        assert "# param k = 7" in out

    def test_at_secrecy_capacity_degenerate_binning_is_explained(self, capsys):
        # at this size the ragged last bin is empty, which the binning
        # construction rejects rather than silently violating its invariant
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "8", "--at-secrecy-capacity",
            "--sigma-b-sq", "0.25", "--sigma-e-sq", "1", "--trials", "2",
        )
        assert code == 2
        assert "one key symbol per bin" in err

    def test_k_and_capacity_flag_conflict(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "8", "--k", "3", "--at-secrecy-capacity",
            "--sigma-b-sq", "0.25", "--sigma-e-sq", "1",
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_budget_exceeded_is_resource_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "8", "--k", "30", "--k-tilde", "6",
            "--sigma-b-sq", "0.3", "--sigma-e-sq", "1", "--trials", "1",
        )
        assert code == 3
        assert "lower n, k, or k_tilde" in err

    def test_message_wider_than_int64_is_budget_error(self, capsys):
        # k = 70 once reached the message draw and failed there as a usage
        # error ("high is out of bounds for int64")
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "8", "--k", "70", "--k-tilde", "2",
            "--sigma-b-sq", "0.01", "--sigma-e-sq", "1", "--trials", "1",
        )
        assert code == 3
        assert "budget is 2**20" in err

    def test_subnormal_noise_is_numerical_failure(self):
        # 0.5 / 1e-310 overflows, so every log-weight is infinite or nan; in
        # a fresh interpreter, where numpy's warnings reach stderr, the exit
        # is explained by one line
        src = str(pathlib.Path(gfwiretap.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [
                sys.executable, "-m", "gfwiretap.cli",
                "simulate", "--n", "8", "--k", "2", "--k-tilde", "2",
                "--sigma-b-sq", "1e-310", "--sigma-e-sq", "1", "--trials", "2",
            ],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert run.returncode == 4
        assert run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("gfwiretap: numerical failure:"), lines
        assert "sigma_sq=1e-310" in lines[0]

    def test_smallest_normal_scale_noise_still_decodes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "8", "--k", "2", "--k-tilde", "2",
            "--sigma-b-sq", "1e-305", "--sigma-e-sq", "1", "--trials", "2",
        )
        assert code == 0
        rows = data_rows(out)
        assert rows[1:] == ["0,3,3,0,0,1,1,1", "1,1,1,0,0,1,1,1"]
        assert "# summary message_error_rate = 0\n" in out
        assert "# summary mean_overlap = 1 se = 0\n" in out

    def test_units_flag_is_gone(self, capsys):
        # the report has no nat-valued field, so simulate takes no --units
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--n", "16", "--k", "4", "--k-tilde", "2",
                "--sigma-b-sq", "0.3", "--sigma-e-sq", "1", "--units", "bits",
            ])
        assert exc.value.code == 2
        assert "--units" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "leakage"])
    def test_default_budget_refuses_dim_21(self, capsys, command):
        # k + k_tilde = 21 is one past the default enumeration budget
        code, _, err = run_cli(
            capsys,
            command, "--n", "4", "--k", "15", "--k-tilde", "6",
            "--sigma-b-sq", "0.3", "--sigma-e-sq", "1",
        )
        assert code == 3
        assert "budget is 2**20" in err


class TestLeakageCommand:
    def test_sample_count_over_budget_names_samples(self, capsys, monkeypatch):
        # 100 samples * (3 * 8 + 18) floats exceed a 1000-float budget, while
        # the 16 * 8-float codeword table fits; refused before the table
        def no_enumeration(*args, **kwargs):
            raise AssertionError("leakage built its table before its budget check")

        monkeypatch.setattr(simulate_module, "_enumerate_outputs", no_enumeration)
        monkeypatch.setattr(simulate_module, "_TABLE_BUDGET", 1000)
        code, _, err = run_cli(
            capsys,
            "leakage", "--n", "8", "--k", "2", "--k-tilde", "2",
            "--sigma-e-sq", "1", "--samples", "100",
        )
        assert code == 3
        assert "n_samples=100" in err
        assert "(lower --samples)" in err

    def test_dim_21_is_refused_before_any_field_is_sampled(self, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("leakage sampled a field before its budget check")

        monkeypatch.setattr(simulate_module, "sample_field", no_sampling)
        code, _, err = run_cli(
            capsys,
            "leakage", "--n", "4", "--k", "15", "--k-tilde", "6",
            "--sigma-e-sq", "1", "--realizations", "3",
        )
        assert code == 3
        assert "budget is 2**20" in err

    def test_reports_three_estimates_and_chain(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "leakage", "--n", "8", "--k", "2", "--k-tilde", "2",
            "--sigma-e-sq", "1", "--samples", "150",
        )
        assert code == 0
        rows = data_rows(out)
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == ["leakage", "mi_all_symbols", "mi_key_given_msg", "chain_residual"]
        chain = float(rows[4].split(",")[1])
        assert chain <= 1e-12

    def test_tiny_noise_is_numerical_failure(self, capsys):
        # the per-sample terms overflow rather than print as NaN
        code, out, err = run_cli(
            capsys,
            "leakage", "--n", "8", "--k", "2", "--k-tilde", "2",
            "--sigma-e-sq", "1e-20", "--samples", "200",
        )
        assert code == 4
        assert out == ""
        assert "numerical failure" in err and "sigma_e_sq=1e-20" in err

    def test_tiny_noise_prints_only_the_failure_line(self):
        # in a fresh interpreter, where numpy's warnings reach stderr: the
        # overflowing scorer must leave the one line that explains the exit
        src = str(pathlib.Path(gfwiretap.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [
                sys.executable, "-m", "gfwiretap.cli",
                "leakage", "--n", "8", "--k", "2", "--k-tilde", "2",
                "--sigma-e-sq", "1e-18", "--samples", "2000",
            ],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert run.returncode == 4
        assert run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("gfwiretap: numerical failure:"), lines

    def test_huge_noise_gives_zero_within_error(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "leakage", "--n", "8", "--k", "2", "--k-tilde", "2",
            "--sigma-e-sq", "1e6", "--samples", "300",
        )
        assert code == 0
        row = data_rows(out)[1].split(",")
        assert abs(float(row[1])) <= 3.0 * float(row[2])

    def test_units_bits(self, capsys):
        args = (
            "leakage", "--n", "6", "--k", "2", "--k-tilde", "2",
            "--sigma-e-sq", "0.5", "--samples", "100", "--realizations", "2",
        )
        _, nats, _ = run_cli(capsys, *args)
        _, bits, _ = run_cli(capsys, *args, "--units", "bits")
        nats_rows = [r.split(",") for r in data_rows(nats)[1:]]
        bits_rows = [r.split(",") for r in data_rows(bits)[1:]]
        assert [r[0] for r in bits_rows] == [r[0] for r in nats_rows]
        assert len(bits_rows) == 5
        for nat_row, bit_row in zip(nats_rows, bits_rows):
            for v_nats, v_bits in zip(nat_row[1:], bit_row[1:]):
                assert float(v_bits) == pytest.approx(
                    float(v_nats) / math.log(2.0), rel=1e-12, abs=0.0
                )

    @pytest.mark.parametrize("realizations", ["0", "-3"])
    def test_realizations_below_one_is_usage_error(self, capsys, realizations):
        code, out, err = run_cli(
            capsys,
            "leakage", "--n", "6", "--k", "2", "--k-tilde", "2",
            "--sigma-e-sq", "1", "--samples", "100", "--realizations", realizations,
        )
        assert code == 2
        assert out == ""
        assert "--realizations must be >= 1" in err

    def test_realization_average_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "leakage", "--n", "6", "--k", "2", "--k-tilde", "2",
            "--sigma-e-sq", "1", "--samples", "100", "--realizations", "3",
        )
        assert code == 0
        rows = {
            name: (float(value), float(se))
            for name, value, se in (r.split(",") for r in data_rows(out)[1:])
        }
        assert list(rows)[-1] == "leakage_avg_over_realizations"
        fixed, fixed_se = rows["leakage"]
        mean, se = rows["leakage_avg_over_realizations"]
        # the realization average is a different number from the fixed-pair
        # estimate but lives on the same scale
        assert se > 0.0
        assert abs(mean - fixed) <= 5.0 * (se + fixed_se)

    def test_each_realization_estimated_once(self, capsys, monkeypatch):
        seen = []

        def counting(cfg, fld, plan, n_samples):
            seen.append((fld.spec.seed, tuple(plan.permutation)))
            return estimate_leakage(cfg, fld, plan, n_samples)

        monkeypatch.setattr(cli, "estimate_leakage", counting)
        code, _, _ = run_cli(
            capsys,
            "leakage", "--n", "6", "--k", "2", "--k-tilde", "2",
            "--sigma-e-sq", "1", "--samples", "50", "--realizations", "3",
        )
        assert code == 0
        assert len(seen) == 3
        assert len(set(seen)) == 3


class TestFieldCheck:
    def test_covariance_table(self, capsys):
        code, out, _ = run_cli(capsys, "field-check", "--fields", "4000")
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == "overlap,theory,empirical,se,cross_empirical,cross_se"
        for row in rows[1:]:
            u, theory, emp, se, cross, cross_se = (float(v) for v in row.split(","))
            assert theory == pytest.approx(u**3, abs=1e-15)
            assert abs(emp - theory) <= 3.0 * se
            assert abs(cross) <= 3.0 * cross_se

    def test_field_count_over_budget_names_fields(self, capsys, monkeypatch):
        # 5 probes * 2 products * 1000 fields exceed a 5000-float budget,
        # while the field's 128 coefficients fit
        def no_draws(*args, **kwargs):
            raise AssertionError("field-check drew before its budget check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(field_module, "DEFAULT_COEFF_BUDGET", 5000)
        code, _, err = run_cli(capsys, "field-check", "--fields", "1000")
        assert code == 3
        assert "n_fields=1000" in err
        assert "(lower --fields)" in err

    def test_budget_exceeded_names_field_check_flags(self, capsys, monkeypatch):
        # 2 * (C(128, 5) + C(128, 3) + 128) = 529 815 808 coefficients per
        # field: refused before any draw
        def no_draws(*args, **kwargs):
            raise AssertionError("field-check drew before its budget check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        code, _, err = run_cli(capsys, "field-check", "--k-tot", "128", "--lambda", "5")
        assert code == 3
        assert "(lower --k-tot, --lambda or --n-out)" in err

    def test_huge_k_tot_is_refused_before_building_probes(self, capsys, monkeypatch):
        # 10**13 inputs: counted by binomials and refused before the
        # k_tot-long probe vectors (80 TB each) are built
        def no_vectors(*args, **kwargs):
            raise AssertionError("field-check built its probes before its budget check")

        monkeypatch.setattr(cli.np, "ones", no_vectors)
        code, _, err = run_cli(capsys, "field-check", "--k-tot", "10000000000000")
        assert code == 3
        assert "(lower --k-tot, --lambda or --n-out)" in err

    def test_k_tot_must_fit_overlap_grid(self, capsys):
        code, _, err = run_cli(capsys, "field-check", "--k-tot", "6")
        assert code == 2
        assert "multiple of 4" in err


_SIM = ("--n", "4", "--k", "2", "--k-tilde", "2", "--sigma-b-sq", "0.3", "--sigma-e-sq", "1")
_LEAK = ("--n", "4", "--k", "2", "--k-tilde", "2", "--sigma-e-sq", "1")
# NaN and infinite floats, zero and negative counts, ranges that start
# with a negative number, and oversized inputs that are refused before any
# work; every row fails fast under older code too, so none of them can
# exhaust memory, except --lambda 20000, whose support older code never
# finished building
HOSTILE_RUNS = [
    ("replica-scan", "--rates", "0:1e308:1e-308"),
    ("replica-scan", "--rates", "0:1:0.1"),
    ("replica-scan", "--rates", "-1:2:0.1"),
    ("replica-scan", "--rat", "-1:2:0.1"),
    ("replica-scan", "--rates", "0.5:1:0.1", "--sigma-sq", "nan"),
    ("replica-scan", "--rates", "0.5:1:0.1", "--power", "inf"),
    ("replica-scan", "--rates", "0.5:1:0.1", "--lambda", "0"),
    ("critical-rate", "--power", "nan"),
    ("critical-rate", "--sigma-sq", "inf"),
    ("critical-rate", "--power", "0"),
    ("critical-rate", "--tol", "nan"),
    ("critical-rate", "--tol", "inf"),
    ("critical-rate", "--tol", "-1"),
    ("critical-rate", "--lambda", "-3"),
    ("critical-rate", "--bracket", "-1:2"),
    ("critical-rate", "--bracket=-1:2"),
    ("critical-rate", "--bracket", "-.5:2"),
    ("simulate", *_SIM, "--trials", "0"),
    ("simulate", *_SIM, "--trials", "-1"),
    ("simulate", *_SIM, "--k-tilde", "0"),
    ("simulate", *_SIM, "--power", "nan"),
    ("simulate", *_SIM, "--sigma-b-sq", "inf"),
    ("simulate", *_SIM, "--field-seed", "-1"),
    ("simulate", "--n", "0", "--k", "2", "--sigma-b-sq", "0.3", "--sigma-e-sq", "1"),
    ("simulate", "--n", "4", "--k", "-2", "--sigma-b-sq", "0.3", "--sigma-e-sq", "1"),
    ("simulate", "--n", "4", "--k", "2", "--sigma-b-sq", "0.3", "--sigma-e-sq", "nan"),
    ("simulate", "--n", "4", "--at-secrecy-capacity", "--sigma-b-sq", "0.1",
     "--sigma-e-sq", "inf"),
    ("simulate", "--n", "4", "--k", "15", "--k-tilde", "6", "--sigma-b-sq", "0.3",
     "--sigma-e-sq", "1"),
    ("leakage", *_LEAK, "--samples", "0"),
    ("leakage", *_LEAK, "--samples", "-5"),
    ("leakage", *_LEAK, "--samples", "100000000000000"),
    ("leakage", *_LEAK, "--realizations", "0"),
    ("leakage", *_LEAK, "--sigma-b-sq", "nan"),
    ("leakage", *_LEAK, "--power", "inf"),
    ("leakage", "--n", "0", "--k", "2", "--sigma-e-sq", "1"),
    ("leakage", "--n", "4", "--k", "2", "--sigma-e-sq", "nan"),
    ("leakage", "--n", "4", "--k", "2", "--sigma-e-sq", "1e-300"),
    ("leakage", "--n", "4", "--k", "15", "--k-tilde", "6", "--sigma-e-sq", "1"),
    ("field-check", "--k-tot", "10000000000000"),
    ("field-check", "--k-tot", "0"),
    ("field-check", "--k-tot", "-4"),
    ("field-check", "--n-out", "0"),
    ("field-check", "--fields", "1"),
    ("field-check", "--fields", "-1"),
    ("field-check", "--fields", "100000000000000"),
    ("field-check", "--power", "nan"),
    ("field-check", "--power", "inf"),
    ("field-check", "--lambda", "0"),
    ("field-check", "--lambda", "400", "--fields", "20"),
    ("field-check", "--lambda", "20000", "--fields", "20"),
    ("field-check", "--field-seed", "-1"),
]


@pytest.mark.parametrize("argv", HOSTILE_RUNS, ids=" ".join)
def test_hostile_input_exits_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (2, 3, 4)
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("gfwiretap: "), err
    assert "Traceback" not in err


def test_large_order_is_refused_by_name_before_any_support(capsys, monkeypatch):
    def no_support(*args):
        raise AssertionError("support built")

    monkeypatch.setattr(field_module, "_support", no_support)
    for argv in (
        ("field-check", "--lambda", "400", "--fields", "20"),
        ("leakage", *_LEAK, "--lambda", "300"),
        ("simulate", *_SIM, "--lambda", "300"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert "field order=" in err and "(lower --lambda)" in err, err


# one small run of each subcommand
SMOKE_RUNS = [
    ("replica-scan", "--rates", "1.0:1.0:1.0"),
    ("critical-rate", "--tol", "0.05"),
    ("simulate", "--n", "8", "--k", "2", "--k-tilde", "2", "--sigma-b-sq", "0.3",
     "--sigma-e-sq", "1", "--trials", "1"),
    ("leakage", "--n", "8", "--k", "2", "--k-tilde", "2",
     "--sigma-e-sq", "1", "--samples", "20"),
    ("field-check", "--fields", "20"),
]


@pytest.mark.parametrize("argv", SMOKE_RUNS, ids=lambda argv: argv[0])
def test_header_records_versions(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    versions = f"# versions: gfwiretap {gfwiretap.__version__}, numpy {np.__version__}"
    assert out.splitlines().count(versions) == 1


def _subcommand_flags(name):
    """Long flags of one subcommand, from the parser itself."""
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        next(o for o in action.option_strings if o.startswith("--"))
        for action in subparsers.choices[name]._actions
        if action.option_strings and action.dest != "help"
    ]


@pytest.mark.parametrize("argv", SMOKE_RUNS, ids=lambda argv: argv[0])
def test_header_echoes_every_flag_once_sorted(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    names = [
        l[len("# param "):].split(" = ")[0]
        for l in out.splitlines()
        if l.startswith("# param ")
    ]
    flags = [f[2:].replace("-", "_") for f in _subcommand_flags(argv[0]) if f != "--out"]
    assert len(flags) >= 5
    assert names == sorted(flags)


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[replica-scan]\nlambda = 3\nrates = 1.0:1.0:1.0\nunits = bits\n"
        )
        code, out, _ = run_cli(capsys, "--config", str(ini), "replica-scan")
        assert code == 0
        assert "# param units = bits" in out
        code, out, _ = run_cli(
            capsys, "--config", str(ini), "replica-scan", "--units", "nats"
        )
        assert code == 0
        assert "# param units = nats" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("replica-scan", "--rates", "1.0:1.1:0.1", "--units", "bits"),
            ("critical-rate", "--tol", "0.02"),
            ("leakage", "--n", "8", "--k", "2", "--k-tilde", "2",
             "--sigma-e-sq", "1", "--samples", "50"),
            ("leakage", "--n", "8", "--k", "2", "--k-tilde", "2", "--sigma-e-sq", "1",
             "--samples", "50", "--lambda", "1", "--allow-low-order", "--units", "bits"),
            ("field-check", "--fields", "200"),
            ("simulate", "--n", "8", "--k", "2", "--k-tilde", "2", "--sigma-b-sq", "0.3",
             "--sigma-e-sq", "1", "--trials", "2", "--freeze-field"),
        ],
        ids=["replica-scan", "critical-rate", "leakage", "leakage-low-order", "field-check",
             "simulate"],
    )
    def test_header_reruns_through_config(self, capsys, tmp_path, argv):
        # the header's '# param' lines, as a config section, reproduce the run
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        params = [
            l[len("# param "):] for l in first.splitlines() if l.startswith("# param ")
        ]
        ini = tmp_path / "rerun.ini"
        ini.write_text(f"[{argv[0]}]\n" + "\n".join(params) + "\n")
        code, second, _ = run_cli(capsys, "--config", str(ini), argv[0])
        assert code == 0
        assert strip_generated(second) == strip_generated(first)

    @pytest.mark.parametrize(
        "config_args",
        [lambda ini: [f"--config={ini}"], lambda ini: ["--conf", str(ini)]],
        ids=["equals-form", "abbreviation"],
    )
    def test_config_flag_forms_rerun_a_header(self, capsys, tmp_path, config_args):
        # argparse accepts both forms; a config file they name must not be
        # ignored
        argv = ("critical-rate", "--tol", "0.02")
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        params = [
            l[len("# param "):] for l in first.splitlines() if l.startswith("# param ")
        ]
        ini = tmp_path / "rerun.ini"
        ini.write_text("[critical-rate]\n" + "\n".join(params) + "\n")
        code, second, _ = run_cli(capsys, *config_args(ini), "critical-rate")
        assert code == 0
        assert strip_generated(second) == strip_generated(first)

    def test_config_without_path_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "critical-rate", "--config")
        assert code == 2
        assert "--config requires a path" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "--config", "/nonexistent.ini", "replica-scan")
        assert code == 2
        assert "config" in err
