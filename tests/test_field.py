import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gfwiretap import field as field_module
from gfwiretap.errors import BudgetError
from gfwiretap.field import (
    FieldSpec,
    covariance_probe,
    enumerate_outputs,
    evaluate,
    evaluate_flipped,
    sample_field,
)
from oracles import covariance_probe_reference, evaluate_rows_reference


def bipolar(rng, dim):
    return rng.integers(0, 2, size=dim).astype(float) * 2.0 - 1.0


class TestSampling:
    def test_deterministic_per_seed(self):
        spec = FieldSpec(n_out=4, dim=5, order=2, power=1.0, seed=99)
        a, b = sample_field(spec), sample_field(spec)
        assert np.array_equal(a.coeffs, b.coeffs)
        other = sample_field(FieldSpec(n_out=4, dim=5, order=2, power=1.0, seed=100))
        assert not np.array_equal(a.coeffs, other.coeffs)

    def test_shapes_and_scale(self):
        spec = FieldSpec(n_out=3, dim=4, order=3, power=2.0, seed=0)
        fld = sample_field(spec)
        assert fld.coeffs.shape == (3, 4, 4, 4)
        assert fld.scale == pytest.approx(math.sqrt(2.0 / 4**3))

    def test_coefficients_standard_normal(self):
        spec = FieldSpec(n_out=8, dim=8, order=2, power=1.0, seed=7)
        c = sample_field(spec).coeffs.ravel()
        assert abs(c.mean()) <= 4.0 / math.sqrt(c.size)
        assert abs(c.std() - 1.0) <= 4.0 / math.sqrt(c.size)

    def test_budget_error_names_count(self):
        spec = FieldSpec(n_out=64, dim=32, order=5, power=1.0, seed=0)
        with pytest.raises(BudgetError, match=str(spec.coeff_count)):
            sample_field(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FieldSpec(n_out=0, dim=1, order=1, power=1.0, seed=0)
        with pytest.raises(ValueError):
            FieldSpec(n_out=1, dim=1, order=0, power=1.0, seed=0)
        with pytest.raises(ValueError):
            FieldSpec(n_out=1, dim=1, order=1, power=-1.0, seed=0)
        with pytest.raises(ValueError):
            FieldSpec(n_out=1, dim=1, order=1, power=1.0, seed=2**64)

    def test_immutable_coefficients(self):
        fld = sample_field(FieldSpec(n_out=2, dim=2, order=1, power=1.0, seed=0))
        with pytest.raises(ValueError):
            fld.coeffs[0, 0] = 0.0


class TestEvaluate:
    def test_linear_case_is_matrix_product(self):
        spec = FieldSpec(n_out=6, dim=5, order=1, power=1.0, seed=3)
        fld = sample_field(spec)
        rng = np.random.default_rng(0)
        s = bipolar(rng, 5)
        expected = fld.scale * (fld.coeffs @ s)
        assert np.array_equal(evaluate(fld, s), expected)

    def test_odd_order_sign_symmetry(self):
        for order in (1, 3):
            spec = FieldSpec(n_out=4, dim=4, order=order, power=1.0, seed=11)
            fld = sample_field(spec)
            s = bipolar(np.random.default_rng(1), 4)
            assert np.array_equal(evaluate(fld, -s), -evaluate(fld, s))

    def test_input_validation(self):
        fld = sample_field(FieldSpec(n_out=2, dim=3, order=2, power=1.0, seed=0))
        with pytest.raises(ValueError):
            evaluate(fld, np.ones(4))
        with pytest.raises(ValueError):
            evaluate(fld, np.array([1.0, 0.5, -1.0]))

    def test_second_moment_is_power(self):
        # E[V_n(s)^2] = power at full self-overlap, over resampled fields
        power, n_fields = 1.7, 10_000
        s = np.ones(6)
        vals = np.empty(n_fields)
        for i in range(n_fields):
            fld = sample_field(FieldSpec(n_out=1, dim=6, order=3, power=power, seed=i))
            vals[i] = evaluate(fld, s)[0] ** 2
        se = vals.std(ddof=1) / math.sqrt(n_fields)
        assert abs(vals.mean() - power) <= 3.0 * se

    def test_outputs_gaussian_fourth_moment(self):
        n_fields = 20_000
        s = np.ones(4)
        vals = np.empty(n_fields)
        for i in range(n_fields):
            fld = sample_field(FieldSpec(n_out=1, dim=4, order=2, power=1.0, seed=i))
            vals[i] = evaluate(fld, s)[0]
        m2 = float(np.mean(vals**2))
        m4 = float(np.mean(vals**4))
        se4 = float(np.std(vals**4, ddof=1) / math.sqrt(n_fields))
        assert abs(m4 - 3.0 * m2**2) <= 4.0 * se4


class TestEvaluateRows:
    def test_shape_errors(self):
        fld = sample_field(FieldSpec(n_out=2, dim=3, order=2, power=1.0, seed=0))
        with pytest.raises(ValueError):
            evaluate(fld, np.ones((2, 2, 3)))
        with pytest.raises(ValueError):
            evaluate(fld, np.ones((5, 4)))
        with pytest.raises(ValueError):
            evaluate(fld, np.array([[1.0, -1.0, 1.0], [1.0, 0.5, -1.0]]))


class TestCovarianceLaw:
    def test_cubic_covariance_at_half_overlap(self):
        spec = FieldSpec(n_out=2, dim=8, order=3, power=1.0, seed=0)
        s1 = np.ones(8)
        s2 = np.ones(8)
        s2[:2] = -1.0  # overlap 0.5
        ((mean_same, se_same, mean_cross, se_cross),) = covariance_probe(
            spec, s1, [s2], n_fields=20_000, seed=42
        )
        assert abs(mean_same - 0.125) <= 3.0 * se_same
        assert abs(mean_cross) <= 3.0 * se_cross

    def test_linear_covariance_matches_overlap(self):
        spec = FieldSpec(n_out=2, dim=4, order=1, power=2.0, seed=0)
        s1 = np.ones(4)
        s2 = np.array([1.0, 1.0, -1.0, -1.0])  # overlap 0
        (r_zero,) = covariance_probe(spec, s1, [s2], n_fields=10_000, seed=1)
        assert abs(r_zero[0]) <= 3.0 * r_zero[1]

    @pytest.mark.parametrize(
        "n_out,dim,order,n_probes",
        [(2, 8, 3, 5), (3, 5, 2, 2), (2, 4, 1, 0), (4, 6, 4, 7)],
    )
    def test_block_probe_matches_per_probe_reference(self, n_out, dim, order, n_probes):
        rng = np.random.default_rng(dim * 10 + order)
        spec = FieldSpec(n_out=n_out, dim=dim, order=order, power=1.5, seed=0)
        s1 = bipolar(rng, dim)
        probes = [bipolar(rng, dim) for _ in range(n_probes)]
        got = covariance_probe(spec, s1, probes, n_fields=300, seed=17)
        want = covariance_probe_reference(spec, s1, probes, n_fields=300, seed=17)
        assert len(got) == len(want) == n_probes
        assert np.max(np.abs(np.array(got) - np.array(want)), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("fields_per_chunk", [1, 7, 100])
    def test_probe_is_chunk_invariant(self, monkeypatch, fields_per_chunk):
        # 100 fields: 1 and 7 per chunk leave a short last chunk, 100 is one
        spec = FieldSpec(n_out=3, dim=5, order=2, power=1.5, seed=0)
        rng = np.random.default_rng(3)
        s1 = bipolar(rng, 5)
        probes = [bipolar(rng, 5) for _ in range(4)]
        want = covariance_probe(spec, s1, probes, n_fields=100, seed=8)
        monkeypatch.setattr(
            field_module, "_CHUNK_FLOATS", fields_per_chunk * spec.coeff_count
        )
        got = covariance_probe(spec, s1, probes, n_fields=100, seed=8)
        assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-12

    def test_probe_repeats_bit_for_bit(self):
        spec = FieldSpec(n_out=2, dim=8, order=3, power=1.0, seed=0)
        rng = np.random.default_rng(11)
        s1 = bipolar(rng, 8)
        probes = [bipolar(rng, 8) for _ in range(3)]
        first = covariance_probe(spec, s1, probes, n_fields=500, seed=4)
        assert covariance_probe(spec, s1, probes, n_fields=500, seed=4) == first

    def test_probe_seed_defaults_to_spec_seed(self):
        spec = FieldSpec(n_out=2, dim=6, order=2, power=1.0, seed=23)
        rng = np.random.default_rng(5)
        s1 = bipolar(rng, 6)
        probes = [bipolar(rng, 6) for _ in range(2)]
        got = covariance_probe(spec, s1, probes, n_fields=200)
        assert got == covariance_probe(spec, s1, probes, n_fields=200, seed=23)
        reseeded = dataclasses.replace(spec, seed=24)
        assert covariance_probe(reseeded, s1, probes, n_fields=200) != got
        # an explicit seed wins over the spec's
        assert covariance_probe(reseeded, s1, probes, n_fields=200, seed=23) == got

    def test_probe_checks_budget_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("covariance_probe drew before its budget check")

        monkeypatch.setattr(field_module.np.random, "default_rng", no_draws)
        # 2 * 64**5 = 2**31 coefficients per field, over the 2**25 budget
        spec = FieldSpec(n_out=2, dim=64, order=5, power=1.0, seed=0)
        with pytest.raises(BudgetError) as want:
            sample_field(spec)
        with pytest.raises(BudgetError) as got:
            covariance_probe(spec, np.ones(64), [np.ones(64)], 100, 0)
        assert str(got.value) == str(want.value)

    def test_probe_validation(self):
        spec = FieldSpec(n_out=1, dim=4, order=1, power=1.0, seed=0)
        with pytest.raises(ValueError):
            covariance_probe(spec, np.ones(4), [np.ones(4)], 100, 0)


class TestEnumerateOutputs:
    @settings(max_examples=60, deadline=None)
    @given(
        order=st.integers(min_value=1, max_value=4),
        n_out=st.integers(min_value=1, max_value=4),
        dim=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        cap_rows=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    )
    # 1, 6 and 11 bits leave a partial last transform group
    @example(order=4, n_out=1, dim=1, seed=1, cap_rows=None)
    @example(order=3, n_out=4, dim=6, seed=6, cap_rows=None)
    @example(order=4, n_out=2, dim=11, seed=11, cap_rows=None)
    @example(order=2, n_out=3, dim=12, seed=12, cap_rows=None)
    # the block cap splits n_out into 3 or more blocks, the last one partial
    @example(order=3, n_out=7, dim=5, seed=5, cap_rows=2)
    @example(order=4, n_out=8, dim=3, seed=3, cap_rows=3)
    @example(order=2, n_out=5, dim=11, seed=4, cap_rows=2)
    def test_matches_block_evaluate_on_every_pattern(self, order, n_out, dim, seed, cap_rows):
        fld = sample_field(FieldSpec(n_out=n_out, dim=dim, order=order, power=1.0, seed=seed))
        bit_of_coordinate = np.random.default_rng(seed).permutation(dim)
        patterns = np.arange(1 << dim)
        rows = ((patterns[:, None] >> bit_of_coordinate) & 1) * 2.0 - 1.0
        expected = evaluate_rows_reference(fld, rows).T
        # a cap one float short of the next row leaves cap_rows rows per block
        cap = field_module._BLOCK_FLOATS if cap_rows is None else ((cap_rows + 1) << dim) - 1
        with mock.patch.object(field_module, "_BLOCK_FLOATS", cap):
            blocks = list(enumerate_outputs(fld, bit_of_coordinate))
        per_block = max(1, cap >> dim)
        assert [len(b) for b in blocks] == [
            min(per_block, n_out - lo) for lo in range(0, n_out, per_block)
        ]
        values = np.vstack(blocks)
        assert values.shape == (n_out, 1 << dim)
        assert np.all(np.abs(values - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    def test_permutation_validation(self):
        fld = sample_field(FieldSpec(n_out=2, dim=3, order=2, power=1.0, seed=0))
        for bad in ([0, 1], [0, 1, 1], [1, 2, 3]):
            with pytest.raises(ValueError):
                next(enumerate_outputs(fld, bad))


class TestEvaluateFlipped:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_full_evaluation(self, order):
        rng = np.random.default_rng(2026)
        for trial in range(100):
            dim = int(rng.integers(1, 7))
            spec = FieldSpec(
                n_out=int(rng.integers(1, 9)),
                dim=dim,
                order=order,
                power=float(rng.uniform(0.5, 2.0)),
                seed=trial,
            )
            fld = sample_field(spec)
            s = bipolar(rng, dim)
            idx = int(rng.integers(0, dim))
            base = evaluate(fld, s)
            flipped = s.copy()
            flipped[idx] = -flipped[idx]
            np.testing.assert_array_equal(
                evaluate_flipped(fld, s, base, idx), evaluate(fld, flipped)
            )
            assert s[idx] == -flipped[idx]  # the caller's vector is left as it was

    def test_involution(self):
        spec = FieldSpec(n_out=5, dim=6, order=3, power=1.0, seed=8)
        fld = sample_field(spec)
        s = bipolar(np.random.default_rng(3), 6)
        base = evaluate(fld, s)
        once = evaluate_flipped(fld, s, base, 2)
        s2 = s.copy()
        s2[2] = -s2[2]
        np.testing.assert_array_equal(evaluate_flipped(fld, s2, once, 2), base)

    def test_scalar_linear_field_negates(self):
        spec = FieldSpec(n_out=3, dim=1, order=1, power=1.0, seed=5)
        fld = sample_field(spec)
        s = np.array([1.0])
        base = evaluate(fld, s)
        np.testing.assert_array_equal(evaluate_flipped(fld, s, base, 0), -base)

    def test_index_validation(self):
        spec = FieldSpec(n_out=2, dim=3, order=2, power=1.0, seed=0)
        fld = sample_field(spec)
        s = np.ones(3)
        base = evaluate(fld, s)
        with pytest.raises(ValueError):
            evaluate_flipped(fld, s, base, 3)
        with pytest.raises(ValueError):
            evaluate_flipped(fld, s, base[:1], 0)

