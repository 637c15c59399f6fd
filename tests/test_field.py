import dataclasses
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gfwiretap import field as field_module
from gfwiretap.errors import BudgetError
from gfwiretap.field import (
    FieldSpec,
    covariance_probe,
    evaluate,
    evaluate_flipped,
    sample_field,
)
from oracles import covariance_probe_reference, evaluate_rows_reference, support_reference


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
        # order 3 on 4 inputs: 4 singletons and 4 triples per output
        spec = FieldSpec(n_out=3, dim=4, order=3, power=2.0, seed=0)
        fld = sample_field(spec)
        assert fld.coeffs.shape == (3, 8)
        assert spec.coeff_count == 24
        assert fld.scale == pytest.approx(math.sqrt(2.0 / 4**3))

    def test_coefficients_standard_normal(self):
        # each set's coefficients are sqrt(count) times standard normals
        spec = FieldSpec(n_out=8, dim=8, order=2, power=1.0, seed=7)
        _, counts = support_reference(8, 2)
        c = (sample_field(spec).coeffs / np.sqrt(counts)).ravel()
        assert abs(c.mean()) <= 4.0 / math.sqrt(c.size)
        assert abs(c.std() - 1.0) <= 4.0 / math.sqrt(c.size)

    def test_budget_error_names_count(self):
        # 64 * (C(64, 5) + C(64, 3) + 64) = 490 639 360 coefficients
        spec = FieldSpec(n_out=64, dim=64, order=5, power=1.0, seed=0)
        with pytest.raises(BudgetError, match=str(spec.coeff_count)):
            sample_field(spec)

    def test_huge_spec_refused_before_building_the_support(self):
        # ~8.3e22 sets: counted by binomials, never enumerated
        spec = FieldSpec(n_out=1, dim=10**5, order=5, power=1.0, seed=0)
        started = time.perf_counter()
        with pytest.raises(BudgetError, match=str(spec.coeff_count)):
            sample_field(spec)
        assert time.perf_counter() - started < 0.5
        assert spec.coeff_count == sum(math.comb(10**5, j) for j in (1, 3, 5))

    def test_budget_bounds_support_indices(self):
        # one output on C(64,5) + C(64,3) + 64 sets fits as coefficients,
        # but not as five indices a set
        spec = FieldSpec(n_out=1, dim=64, order=5, power=1.0, seed=0)
        assert spec.coeff_count <= field_module.DEFAULT_COEFF_BUDGET
        with pytest.raises(BudgetError, match=str(5 * spec.coeff_count)):
            sample_field(spec)

    def test_large_order_refused_by_name_before_the_support(self, monkeypatch):
        # dim 8 counts 3 bits an order: 8**171 passes 2**512; order 400
        # once overflowed a float and order 20000 never finished the
        # support's recurrence, while sets * order fit the index budget
        def no_support(*args):
            raise AssertionError("support built")

        with monkeypatch.context() as patch:
            patch.setattr(field_module, "_support", no_support)
            for dim, order in ((8, 171), (8, 400), (8, 20000), (1, 513), (2, 513), (5, 171)):
                spec = FieldSpec(n_out=1, dim=dim, order=order, power=1.0, seed=0)
                with pytest.raises(BudgetError, match=f"field order={order} at dim={dim}"):
                    sample_field(spec)
        for dim, order in ((8, 170), (1, 512), (2, 512), (5, 170), (1, 1), (2, 1)):
            fld = sample_field(FieldSpec(n_out=2, dim=dim, order=order, power=1.0, seed=0))
            assert np.all(np.isfinite(fld.coeffs)) and fld.scale > 0.0
            assert np.all(np.isfinite(fld.coeffs.T @ fld.coeffs))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FieldSpec(n_out=0, dim=1, order=1, power=1.0, seed=0)
        with pytest.raises(ValueError):
            FieldSpec(n_out=1, dim=1, order=0, power=1.0, seed=0)
        with pytest.raises(ValueError):
            FieldSpec(n_out=1, dim=1, order=1, power=-1.0, seed=0)
        with pytest.raises(ValueError):
            FieldSpec(n_out=1, dim=1, order=1, power=1.0, seed=2**64)

    def test_non_integer_seed_is_refused(self):
        # 1.5 once drew seed 1's field
        for seed in (1.5, 2.0, np.float64(3.0), "4", None):
            with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
                FieldSpec(n_out=1, dim=2, order=1, power=1.0, seed=seed)
        assert FieldSpec(n_out=1, dim=2, order=1, power=1.0, seed=np.uint64(2**64 - 1))

    def test_immutable_coefficients(self):
        fld = sample_field(FieldSpec(n_out=2, dim=2, order=1, power=1.0, seed=0))
        with pytest.raises(ValueError):
            fld.coeffs[0, 0] = 0.0


class TestSupport:
    ORDERS_AND_DIMS = [(order, dim) for order in range(1, 7) for dim in range(1, 9)]

    @pytest.mark.parametrize("order,dim", ORDERS_AND_DIMS)
    def test_character_sum_is_inner_product_power(self, order, dim):
        # sum_S count(S) chi_S(s1) chi_S(s2) == (s1.s2)**order, exactly,
        # over every pair of inputs
        idx, root, _ = field_module._support(dim, order)
        counts = np.rint(root**2).astype(np.int64)
        inputs = ((np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1) * 2 - 1
        chars = np.prod(inputs[:, idx], axis=2)
        assert np.array_equal((chars * counts) @ chars.T, (inputs @ inputs.T) ** order)

    @pytest.mark.parametrize("order,dim", ORDERS_AND_DIMS)
    def test_counts_match_brute_force_fold(self, order, dim):
        sets, counts = support_reference(dim, order)
        idx, root, masks = field_module._support(dim, order)
        # each row's set is the indices it holds an odd number of times
        odd = [tuple(sorted(i for i in set(row) if row.count(i) % 2)) for row in idx.tolist()]
        assert odd == sets
        assert np.rint(root**2).astype(np.int64).tolist() == counts
        assert np.array_equal(root, np.sqrt(counts))
        assert masks.tolist() == [sum(1 << i for i in subset) for subset in sets]
        assert FieldSpec(1, dim, order, 1.0, 0).coeff_count == len(sets)

    def test_tables_are_read_only_and_cache_is_bounded(self):
        for table in field_module._support(6, 3):
            with pytest.raises(ValueError):
                table[0] = 1
        assert field_module._support.cache_info().maxsize is not None


class TestEvaluate:
    def test_linear_case_is_matrix_product(self):
        # order 1: the support is the singletons with count 1, so the
        # coefficients are the seed's first (n_out, dim) normals
        spec = FieldSpec(n_out=6, dim=5, order=1, power=1.0, seed=3)
        fld = sample_field(spec)
        assert np.array_equal(fld.coeffs, np.random.default_rng(3).standard_normal((6, 5)))
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
        # 2 * (C(128, 5) + C(128, 3) + 128) = 529 815 808 coefficients per
        # field, over the 2**25 budget
        spec = FieldSpec(n_out=2, dim=128, order=5, power=1.0, seed=0)
        with pytest.raises(BudgetError) as want:
            sample_field(spec)
        with pytest.raises(BudgetError) as got:
            covariance_probe(spec, np.ones(128), [np.ones(128)], 100, 0)
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
        sets, _ = support_reference(dim, order)
        masks = np.array([sum(1 << int(bit_of_coordinate[c]) for c in subset) for subset in sets])
        patterns = np.arange(1 << dim)
        rows = ((patterns[:, None] >> bit_of_coordinate) & 1) * 2.0 - 1.0
        expected = evaluate_rows_reference(fld, rows).T
        # a cap one float short of the next row leaves cap_rows rows per block
        cap = field_module._BLOCK_FLOATS if cap_rows is None else ((cap_rows + 1) << dim) - 1
        with mock.patch.object(field_module, "_BLOCK_FLOATS", cap):
            offsets, blocks = zip(*field_module._enumerate_outputs(fld, masks))
        per_block = max(1, cap >> dim)
        assert list(offsets) == list(range(0, n_out, per_block))
        assert [len(b) for b in blocks] == [min(per_block, n_out - lo) for lo in offsets]
        values = np.vstack(blocks)
        assert values.shape == (n_out, 1 << dim)
        assert np.all(np.abs(values - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


class TestProduct:
    def test_row_slices_match_one_product(self):
        rng = np.random.default_rng(95)
        a, b = rng.standard_normal((37, 11)), rng.standard_normal((11, 5))
        # 55 multiply-adds a row, so a cap of 200 leaves slices of 3 rows
        with mock.patch.object(field_module, "_PRODUCT_MADDS", 200):
            out = field_module._product(a, b)
        slices = np.vstack([a[lo : lo + 3] @ b for lo in range(0, 37, 3)])
        assert np.array_equal(out, slices)
        assert np.max(np.abs(out - a @ b)) <= 1e-13

    def test_out_is_filled_in_place(self):
        rng = np.random.default_rng(96)
        a, b = rng.standard_normal((9, 4)), rng.standard_normal((4, 6))
        out = np.full((9, 6), np.nan)
        with mock.patch.object(field_module, "_PRODUCT_MADDS", 50):
            assert field_module._product(a, b, out=out) is out
        assert np.max(np.abs(out - a @ b)) <= 1e-13

    def test_row_over_the_cap_is_its_own_slice(self):
        rng = np.random.default_rng(97)
        a, b = rng.standard_normal((6, 8)), rng.standard_normal((8, 7))
        with mock.patch.object(field_module, "_PRODUCT_MADDS", 10):
            out = field_module._product(a, b)
        assert np.array_equal(out, np.vstack([a[i : i + 1] @ b for i in range(6)]))

    def test_product_under_the_cap_equals_one_call(self):
        # the Gram's operands at dim 10, order 3: 130 sets, 16 outputs
        block = np.random.default_rng(98).standard_normal((16, 130))
        assert 130 * 16 * 130 < field_module._PRODUCT_MADDS
        expected = block.T @ block.copy()
        assert np.array_equal(field_module._product(block.T, block.copy()), expected)


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

