import numpy as np
import pytest
from helpers import diag_quadratic, fd_gradient, fd_hvp, max_rel_err, random_net_ctx

import prunescope as ps
from prunescope.autodiff import forward_logits
from prunescope.errors import NumericalFailureError
from prunescope.model import split_params


class TestTrivialDerivatives:
    """Hand-computable anchors for the differentiation machinery."""

    def test_quadratic_at_minimum(self):
        ctx = diag_quadratic([2.0])
        g = ctx.grad(np.array([0.0]), np.array([True]))
        assert g.loss == 0.0
        np.testing.assert_array_equal(g.gradient, [0.0])

    def test_quadratic_slope(self):
        # loss(w) = w^2 -> loss(3) = 9, gradient 6
        ctx = diag_quadratic([2.0])
        g = ctx.grad(np.array([3.0]), np.array([True]))
        assert g.loss == 9.0
        np.testing.assert_array_equal(g.gradient, [6.0])

    def test_zero_weight_ce_network(self):
        # all-zero 2->2 net, one sample: softmax is uniform, so
        # dlogits = (p - onehot)/n and dW = dlogits^T x exactly
        spec = ps.NetworkSpec((2, 2))
        ctx = ps.LossContext(spec, np.array([[1.0, 2.0]]), np.array([0]))
        g = ps.grad(ctx, np.zeros(spec.param_count), ps.dense_mask(spec))
        assert g.loss == pytest.approx(np.log(2.0), abs=1e-15)
        expected = np.array([-0.5, -1.0, 0.5, 1.0, -0.5, 0.5])  # W row-major then b
        np.testing.assert_allclose(g.gradient, expected, atol=1e-15)

    def test_identity_hessian_hvp(self):
        ctx = diag_quadratic([1.0, 1.0, 1.0])
        v = np.array([0.3, -2.0, 5.0])
        np.testing.assert_array_equal(ctx.hvp(np.zeros(3), np.ones(3, bool), v), v)

    def test_diagonal_hessian_hvp(self):
        ctx = diag_quadratic([3.0, 5.0])
        np.testing.assert_array_equal(
            ctx.hvp(np.zeros(2), np.ones(2, bool), np.array([1.0, 1.0])), [3.0, 5.0]
        )


class TestGradOracle:
    def test_matches_finite_differences(self):
        for seed in range(8):
            ctx, w = random_net_ctx(seed)
            mask = ps.dense_mask(ctx.spec)
            g = ps.grad(ctx, w, mask).gradient
            fd = fd_gradient(ctx, w, mask)
            assert max_rel_err(g, fd) < 1e-6

    def test_masked_gradient_matches_masked_fd(self):
        from helpers import min_preactivation

        ctx, w = random_net_ctx(101)
        gen = np.random.default_rng(0)
        for _ in range(100):  # masking moves pre-activations; stay kink-free
            mask = gen.random(w.size) < 0.7
            mask[~ps.prunable_coords(ctx.spec)] = True
            if min_preactivation(ctx, w, mask) > 1e-3:
                break
        g = ps.grad(ctx, w, mask).gradient
        fd = fd_gradient(ctx, w, mask)
        assert max_rel_err(g, fd) < 1e-6

    def test_loss_matches_loss_on_exactly(self):
        ctx, w = random_net_ctx(7)
        mask = ps.dense_mask(ctx.spec)
        assert ps.grad(ctx, w, mask).loss == ps.loss_on(ctx, w, mask)

    def test_dataset_linearity(self):
        # Eq-style structure: loss over a union is the sample-weighted mean
        ctx, w = random_net_ctx(11, n_samples=16)
        mask = ps.dense_mask(ctx.spec)
        n = ctx.n
        half = n // 2
        ctx_a = ps.LossContext(ctx.spec, ctx.features[:half], ctx.labels[:half])
        ctx_b = ps.LossContext(ctx.spec, ctx.features[half:], ctx.labels[half:])
        combined = (
            half * ps.loss_on(ctx_a, w, mask) + (n - half) * ps.loss_on(ctx_b, w, mask)
        ) / n
        assert abs(combined - ps.loss_on(ctx, w, mask)) < 1e-12

    def test_nonfinite_forward_names_node(self):
        spec = ps.NetworkSpec((2, 4, 2))
        ctx = ps.LossContext(spec, np.array([[1.0, 1.0]]), np.array([0]))
        w = np.full(spec.param_count, 1e300)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalFailureError, match="affine"):
                ps.grad(ctx, w, ps.dense_mask(spec))


class TestHvpOracle:
    def test_matches_fd_of_gradients(self):
        for seed in range(8):
            ctx, w = random_net_ctx(seed + 50)
            mask = ps.dense_mask(ctx.spec)
            v = ps.random_unit_direction(mask, ps.RngStream(seed, 0xABC))
            hv = ps.hvp(ctx, w, mask, v)
            fd = fd_hvp(ctx, w, mask, v)
            assert max_rel_err(hv, fd) < 1e-4

    def test_symmetry(self):
        for seed in range(5):
            ctx, w = random_net_ctx(seed + 90)
            mask = ps.dense_mask(ctx.spec)
            u = ps.random_unit_direction(mask, ps.RngStream(seed, 1))
            v = ps.random_unit_direction(mask, ps.RngStream(seed, 2))
            lhs = float(ps.hvp(ctx, w, mask, u) @ v)
            rhs = float(ps.hvp(ctx, w, mask, v) @ u)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-12)

    def test_masked_hygiene_exact_zeros(self):
        ctx, w = random_net_ctx(200)
        gen = np.random.default_rng(3)
        mask = gen.random(w.size) < 0.6
        mask[~ps.prunable_coords(ctx.spec)] = True
        v = ps.random_unit_direction(mask, ps.RngStream(4))
        hv = ps.hvp(ctx, w, mask, v)
        g = ps.grad(ctx, w, mask).gradient
        assert np.all(hv[~mask] == 0.0)
        assert np.all(g[~mask] == 0.0)

    def test_unmasked_v_is_projected(self):
        # restricted operator: passing v with mass on masked coords is the
        # same as passing mask * v
        ctx, w = random_net_ctx(201)
        mask = ps.dense_mask(ctx.spec)
        mask[:5] = False
        v = np.ones(w.size)
        np.testing.assert_array_equal(
            ps.hvp(ctx, w, mask, v), ps.hvp(ctx, w, mask, v * mask)
        )


class TestForwardLogits:
    def test_matches_hand_written_chain(self):
        ctx, w = random_net_ctx(5, layer_sizes=(2, 4, 4, 2))
        (W1, b1), (W2, b2), (W3, b3) = split_params(ctx.spec, w)
        h1 = np.maximum(ctx.features @ W1.T + b1, 0.0)
        h2 = np.maximum(h1 @ W2.T + b2, 0.0)
        expected = h2 @ W3.T + b3
        np.testing.assert_array_equal(
            forward_logits(ctx, w, ps.dense_mask(ctx.spec)), expected
        )
