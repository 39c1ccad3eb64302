import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prunescope as ps
from prunescope.errors import DimensionMismatchError
from prunescope.model import join_params, layer_slices, split_params


class TestNetworkSpec:
    def test_param_count(self):
        spec = ps.NetworkSpec((2, 64, 64, 3))
        assert spec.param_count == 2 * 64 + 64 + 64 * 64 + 64 + 64 * 3 + 3

    def test_rejects_single_layer(self):
        with pytest.raises(ValueError):
            ps.NetworkSpec((5,))

    def test_rejects_single_output(self):
        with pytest.raises(ValueError):
            ps.NetworkSpec((5, 1))

    def test_layout_round_trip(self):
        spec = ps.NetworkSpec((3, 5, 2))
        w = ps.init_params(spec, ps.RngStream(0))
        again = join_params(spec, split_params(spec, w))
        np.testing.assert_array_equal(w, again)

    def test_prunable_marks_weights_only(self):
        spec = ps.NetworkSpec((2, 3, 2))
        prunable = ps.prunable_coords(spec)
        for w_sl, b_sl, _ in layer_slices(spec):
            assert prunable[w_sl].all()
            assert not prunable[b_sl].any()


class TestInitParams:
    def test_deterministic(self):
        spec = ps.NetworkSpec((2, 2, 2))
        a = ps.init_params(spec, ps.RngStream(5))
        b = ps.init_params(spec, ps.RngStream(5))
        np.testing.assert_array_equal(a, b)

    def test_biases_exactly_zero(self):
        spec = ps.NetworkSpec((4, 8, 3))
        w = ps.init_params(spec, ps.RngStream(1))
        for _, b_sl, _ in layer_slices(spec):
            assert np.all(w[b_sl] == 0.0)

    def test_he_scaling(self):
        # 10^4 weights with fan_in 50: sample std within 10% of sqrt(2/50)
        spec = ps.NetworkSpec((50, 200, 2))
        w = ps.init_params(spec, ps.RngStream(2))
        first_w = w[: 200 * 50]
        assert abs(np.std(first_w) - np.sqrt(2 / 50)) < 0.1 * np.sqrt(2 / 50)


class TestApplyMask:
    def test_definition(self):
        out = ps.apply_mask(np.array([3.0, -2.0, 5.0]), np.array([1, 0, 1], bool))
        np.testing.assert_array_equal(out, [3.0, 0.0, 5.0])

    def test_identity_mask(self):
        w = np.array([1.0, -2.0, 3.5])
        np.testing.assert_array_equal(ps.apply_mask(w, np.ones(3, bool)), w)

    @given(st.integers(0, 2**32), st.integers(1, 30))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, seed, n):
        gen = np.random.default_rng(seed)
        w = gen.normal(size=n)
        m = gen.random(n) < 0.5
        once = ps.apply_mask(w, m)
        np.testing.assert_array_equal(ps.apply_mask(once, m), once)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ps.apply_mask(np.ones(3), np.ones(4, bool))


def _ctx(spec, features, labels):
    return ps.LossContext(spec, np.asarray(features, float), np.asarray(labels))


class TestLossOn:
    def test_uniform_logits(self):
        spec = ps.NetworkSpec((3, 4))
        ctx = _ctx(spec, [[0.2, -1.0, 0.5]], [2])
        loss = ctx.at(ps.dense_mask(spec)).loss(np.zeros(spec.param_count))
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_saturated_margin(self):
        # logits (20, 0): loss = log(1 + e^-20) < 1e-8
        spec = ps.NetworkSpec((1, 2))
        ctx = _ctx(spec, [[1.0]], [0])
        w = np.array([20.0, 0.0, 0.0, 0.0])  # W=[[20],[0]], b=0
        assert ctx.at(ps.dense_mask(spec)).loss(w) < 1e-8

    def test_partition_linearity(self):
        spec = ps.NetworkSpec((2, 3, 2))
        gen = np.random.default_rng(0)
        X = gen.normal(size=(9, 2))
        y = gen.integers(0, 2, size=9)
        ctx = _ctx(spec, X, y)
        w = ps.init_params(spec, ps.RngStream(0))
        m = ps.dense_mask(spec)
        parts = [(0, 4), (4, 9)]
        combined = sum(
            (b - a) * _ctx(spec, X[a:b], y[a:b]).at(m).loss(w) for a, b in parts
        ) / 9
        assert combined == pytest.approx(ctx.at(m).loss(w), abs=1e-12)

    def test_mask_in_weights_or_argument(self):
        spec = ps.NetworkSpec((2, 4, 2))
        gen = np.random.default_rng(1)
        ctx = _ctx(spec, gen.normal(size=(5, 2)), gen.integers(0, 2, size=5))
        w = ps.init_params(spec, ps.RngStream(1))
        m = gen.random(spec.param_count) < 0.6
        m[~ps.prunable_coords(spec)] = True
        assert ctx.at(m).loss(w) == ctx.at(ps.dense_mask(spec)).loss(ps.apply_mask(w, m))

    def test_nonnegative(self):
        spec = ps.NetworkSpec((2, 3, 2))
        gen = np.random.default_rng(9)
        ctx = _ctx(spec, gen.normal(size=(6, 2)), gen.integers(0, 2, size=6))
        for seed in range(10):
            w = ps.init_params(spec, ps.RngStream(seed))
            assert ctx.at(ps.dense_mask(spec)).loss(w) >= 0.0


class TestAccuracyOn:
    def test_degenerate_predictor_balanced(self):
        # all-zero params: every tie resolves to class 0 -> 0.5 on balanced labels
        spec = ps.NetworkSpec((2, 2))
        ctx = _ctx(spec, [[0.0, 1.0], [1.0, 0.0]], [0, 1])
        acc = ctx.at(ps.dense_mask(spec)).accuracy(np.zeros(spec.param_count))
        assert acc == 0.5

    def test_memorizing_net(self):
        spec = ps.NetworkSpec((2, 2))
        ctx = _ctx(spec, [[1.0, 0.0], [0.0, 1.0]], [0, 1])
        # W = identity scaled: picks the matching class
        w = np.array([5.0, 0.0, 0.0, 5.0, 0.0, 0.0])
        assert ctx.at(ps.dense_mask(spec)).accuracy(w) == 1.0

    def test_invariant_under_final_layer_scaling(self):
        spec = ps.NetworkSpec((2, 4, 3))
        gen = np.random.default_rng(2)
        ctx = _ctx(spec, gen.normal(size=(20, 2)), gen.integers(0, 3, size=20))
        w = ps.init_params(spec, ps.RngStream(3))
        scaled = w.copy()
        w_sl, b_sl, _ = layer_slices(spec)[-1]
        scaled[w_sl] *= 7.0
        scaled[b_sl] *= 7.0
        ev = ctx.at(ps.dense_mask(spec))
        assert ev.accuracy(w) == ev.accuracy(scaled)


class TestLossContextValidation:
    def test_rejects_feature_width_mismatch(self):
        spec = ps.NetworkSpec((3, 2))
        with pytest.raises(DimensionMismatchError):
            _ctx(spec, [[1.0, 2.0]], [0])

    def test_rejects_out_of_range_labels(self):
        spec = ps.NetworkSpec((2, 2))
        with pytest.raises(ValueError):
            _ctx(spec, [[1.0, 2.0]], [5])

    def test_rows_equal_a_validated_context_on_those_rows(self):
        spec = ps.NetworkSpec((2, 4, 3))
        ds = ps.gen_spirals(5, 3, 0.2, ps.RngStream(1))
        ctx = ps.LossContext(spec, ds.features, ds.labels)
        idx = np.array([7, 0, 13, 2])
        rows = ctx.rows(idx)
        full = ps.LossContext(spec, ds.features[idx], ds.labels[idx])
        assert rows.spec == spec and rows.n == 4
        np.testing.assert_array_equal(rows.features, full.features)
        np.testing.assert_array_equal(rows.labels, full.labels)
        w = ps.init_params(spec, ps.RngStream(2))
        assert rows.at(ps.dense_mask(spec)).loss(w) == full.at(ps.dense_mask(spec)).loss(w)
