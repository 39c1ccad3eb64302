import numpy as np
import pytest
from helpers import (
    CountingContext,
    diag_quadratic,
    fd_gradient,
    fd_hvp,
    max_rel_err,
    random_net_ctx,
)

import prunescope as ps
from prunescope import autodiff
from prunescope.errors import DimensionMismatchError, NumericalFailureError
from prunescope.landscape import hutchinson_diagonal
from prunescope.model import join_params, split_params


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
        g = ctx.at(ps.dense_mask(spec)).grad(np.zeros(spec.param_count))
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
            g = ctx.at(mask).grad(w).gradient
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
        g = ctx.at(mask).grad(w).gradient
        fd = fd_gradient(ctx, w, mask)
        assert max_rel_err(g, fd) < 1e-6

    def test_loss_matches_ctx_loss_exactly(self):
        ctx, w = random_net_ctx(7)
        ev = ctx.at(ps.dense_mask(ctx.spec))
        assert ev.grad(w).loss == ev.loss(w)

    def test_dataset_linearity(self):
        # Eq-style structure: loss over a union is the sample-weighted mean
        ctx, w = random_net_ctx(11, n_samples=16)
        mask = ps.dense_mask(ctx.spec)
        n = ctx.n
        half = n // 2
        ctx_a = ps.LossContext(ctx.spec, ctx.features[:half], ctx.labels[:half])
        ctx_b = ps.LossContext(ctx.spec, ctx.features[half:], ctx.labels[half:])
        combined = (
            half * ctx_a.at(mask).loss(w) + (n - half) * ctx_b.at(mask).loss(w)
        ) / n
        assert abs(combined - ctx.at(mask).loss(w)) < 1e-12

    def test_nonfinite_forward_names_node(self):
        spec = ps.NetworkSpec((2, 4, 2))
        ctx = ps.LossContext(spec, np.array([[1.0, 1.0]]), np.array([0]))
        w = np.full(spec.param_count, 1e300)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalFailureError, match="affine"):
                ctx.at(ps.dense_mask(spec)).grad(w)


    def test_hidden_overflow_zeroed_by_relu_still_raises(self):
        # hidden unit 0 overflows to -inf; ReLU zeroes it, so the loss along
        # the plain chain stays finite, yet the pass names the layer
        spec = ps.NetworkSpec((2, 2, 2))
        ctx = ps.LossContext(spec, np.array([[1.0, 1.0]]), np.array([0]))
        W1 = np.array([[-1e308, -1e308], [0.5, 0.5]])
        W2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        w = join_params(spec, [(W1, np.zeros(2)), (W2, np.zeros(2))])
        mask = ps.dense_mask(spec)
        with np.errstate(over="ignore"):
            hidden = ctx.features @ W1.T
            logits = np.maximum(hidden, 0.0) @ W2.T
            assert hidden[0, 0] == -np.inf and np.isfinite(logits).all()
            for evaluate in (
                lambda: ctx.at(mask).grad(w),
                lambda: ctx.at(mask).loss(w),
                lambda: ctx.at(mask).hvp_at(w)(np.ones(spec.param_count)),
            ):
                with pytest.raises(NumericalFailureError, match=r"affine\[0\]"):
                    evaluate()

    def test_operator_raises_at_its_first_product(self):
        spec = ps.NetworkSpec((2, 2, 2))
        ctx = ps.LossContext(spec, np.array([[1.0, 1.0]]), np.array([0]))
        W1 = np.array([[-1e308, -1e308], [0.5, 0.5]])
        w = join_params(spec, [(W1, np.zeros(2)), (np.eye(2), np.zeros(2))])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalFailureError, match=r"affine\[0\]"):
                ctx.at(ps.dense_mask(spec)).hvp_at(w)

    def test_finite_entries_whose_sum_overflows_pass(self):
        # both hidden pre-activations are 0.9e308: finite, though their sum
        # is not, so the check must fall through to the exact test
        spec = ps.NetworkSpec((2, 2, 2))
        ctx = ps.LossContext(spec, np.array([[1.0, 1.0]]), np.array([1]))
        W1 = np.full((2, 2), 0.45e308)
        W2 = np.array([[1e-300, 0.0], [0.0, 0.0]])
        w = join_params(spec, [(W1, np.zeros(2)), (W2, np.zeros(2))])
        with np.errstate(over="ignore"):  # the sum's overflow is expected
            result = ctx.at(ps.dense_mask(spec)).grad(w)
        assert np.isfinite(result.loss) and np.isfinite(result.gradient).all()


def _reference_pass(ctx, w, mask):
    """The forward pass and head as plain expressions over split_params."""
    layers = split_params(ctx.spec, ps.apply_mask(w, mask))
    inputs, pre = [], []
    a = ctx.features
    for i, (W, b) in enumerate(layers):
        z = a @ W.T + b
        inputs.append(a)
        pre.append(z)
        if i < len(layers) - 1:
            a = np.maximum(z, 0.0)
    logits = pre[-1]
    n = logits.shape[0]
    zmax = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - zmax).sum(axis=1, keepdims=True)) + zmax
    loss = float((lse[:, 0] - logits[np.arange(n), ctx.labels]).mean())
    probs = np.exp(logits - lse)
    dz = probs.copy()
    dz[np.arange(n), ctx.labels] -= 1.0
    dz /= n
    return layers, inputs, pre, loss, probs, dz


def reference_grad(ctx, w, mask):
    layers, inputs, pre, loss, _, dz = _reference_pass(ctx, w, mask)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = (dz.T @ inputs[i], dz.sum(axis=0))
        if i > 0:
            dz = (dz @ layers[i][0]) * (pre[i - 1] > 0.0)
    return loss, ps.apply_mask(join_params(ctx.spec, grads), mask)


def reference_hvp(ctx, w, mask, v):
    v = ps.apply_mask(v, mask)
    layers, inputs, pre, _, probs, dz = _reference_pass(ctx, w, mask)
    v_layers = split_params(ctx.spec, v)
    n, last = ctx.n, len(layers) - 1
    r_inputs = []
    ra = np.zeros_like(ctx.features)
    for i, ((W, _), (V, c)) in enumerate(zip(layers, v_layers)):
        r_inputs.append(ra)
        rz = ra @ W.T + inputs[i] @ V.T + c
        if i < last:
            ra = rz * (pre[i] > 0.0)
    rdz = probs * (rz - (probs * rz).sum(axis=1, keepdims=True)) / n
    out = [None] * len(layers)
    for i in range(last, -1, -1):
        out[i] = (rdz.T @ inputs[i] + dz.T @ r_inputs[i], rdz.sum(axis=0))
        if i > 0:
            gate = pre[i - 1] > 0.0
            W, V = layers[i][0], v_layers[i][0]
            dz, rdz = (dz @ W) * gate, (rdz @ W + dz @ V) * gate
    return ps.apply_mask(join_params(ctx.spec, out), mask)


class TestBitIdentity:
    """grad and hvp equal, byte for byte, the plain split/join expressions."""

    @pytest.mark.parametrize(
        "sizes", [(2, 24, 24, 3), (2, 128, 128, 3), (2, 4, 4, 2), (2, 16, 3)]
    )
    def test_grad_and_hvp_match_reference(self, sizes):
        spec = ps.NetworkSpec(sizes)
        ds = ps.gen_spirals(100, sizes[-1], 0.15, ps.RngStream(3, 1))
        prunable = ps.prunable_coords(spec)
        gen = np.random.default_rng(sum(sizes))
        for n in (32, 300):
            ctx = ps.LossContext(spec, ds.features[:n], ds.labels[:n])
            for _ in range(4):
                w = gen.normal(size=spec.param_count) * gen.uniform(0.2, 2.0)
                mask = (gen.random(spec.param_count) < 0.6) | ~prunable
                v = gen.normal(size=spec.param_count)
                loss, g = reference_grad(ctx, w, mask)
                result = ctx.at(mask).grad(w)
                assert result.loss == loss
                assert result.gradient.tobytes() == g.tobytes()
                hv = ctx.at(mask).hvp_at(w)(v)
                assert hv.tobytes() == reference_hvp(ctx, w, mask, v).tobytes()

    @pytest.mark.parametrize(
        "sizes", [(2, 24, 24, 3), (2, 128, 128, 3), (2, 4, 4, 2), (2, 16, 3)]
    )
    def test_shared_state_matches_one_off_calls(self, sizes):
        # products through one operator equal one-off operators' products,
        # and one evaluator reused across batch sizes, as a training run
        # reuses its own, equals a fresh evaluator per call
        spec = ps.NetworkSpec(sizes)
        ds = ps.gen_spirals(100, sizes[-1], 0.15, ps.RngStream(3, 1))
        gen = np.random.default_rng(sum(sizes) + 1)
        mask = (gen.random(spec.param_count) < 0.6) | ~ps.prunable_coords(spec)
        run = ps.LossContext(spec, ds.features, ds.labels).at(mask)
        for n in (32, 300, 32):
            ctx = ps.LossContext(spec, ds.features[:n], ds.labels[:n])
            w = gen.normal(size=spec.param_count) * gen.uniform(0.2, 2.0)
            hessian = ctx.at(mask).hvp_at(w)
            for _ in range(3):
                v = gen.normal(size=spec.param_count)
                assert hessian(v).tobytes() == ctx.at(mask).hvp_at(w)(v).tobytes()
            shared = autodiff.grad(ctx, w, run)
            one_off = ctx.at(mask).grad(w)
            assert shared.loss == one_off.loss
            assert shared.gradient.tobytes() == one_off.gradient.tobytes()

    def test_workspace_serves_one_mask(self):
        # an evaluator carries its mask: evaluators at two masks, used in
        # turn, each give their own mask's plain result, and a mask of the
        # wrong length is refused when the evaluator is made
        ctx, w = random_net_ctx(7)
        gen = np.random.default_rng(7)
        masks = [(gen.random(w.size) < 0.6) | ~ps.prunable_coords(ctx.spec) for _ in range(2)]
        evaluators = [ctx.at(mask) for mask in masks]
        for _ in range(2):
            for ev, mask in zip(evaluators, masks):
                loss, g = reference_grad(ctx, w, mask)
                result = ev.grad(w)
                assert result.loss == loss and result.gradient.tobytes() == g.tobytes()
        with pytest.raises(DimensionMismatchError, match="mask length"):
            ctx.at(np.ones(w.size - 1, dtype=bool))


def _head_with_reduce(logits, label_index):
    """The softmax head as it reads with ``np.maximum.reduce`` for the row max."""
    zmax = np.maximum.reduce(logits, axis=1, keepdims=True)
    shifted = np.exp(logits - zmax)
    lse = np.log(np.add.reduce(shifted, axis=1, keepdims=True)) + zmax
    per_sample = lse[:, 0] - logits.ravel()[label_index]
    return float(per_sample.sum() / logits.shape[0]), lse


class TestLeanForward:
    """Forward passes with the ReLU in place, the class max by columns, and
    forward-only evaluations through an evaluator's buffers."""

    @pytest.mark.parametrize("hidden", [(16,), (24, 24), (12, 12, 12)], ids=len)
    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_workspace_matches_allocating_path(self, hidden, classes):
        spec = ps.NetworkSpec((2, *hidden, classes))
        ds = ps.gen_spirals(-(-1500 // classes), classes, 0.15, ps.RngStream(4, classes))
        gen = np.random.default_rng(len(hidden) * 100 + classes)
        order = gen.permutation(len(ds.labels))
        mask = (gen.random(spec.param_count) < 0.6) | ~ps.prunable_coords(spec)
        # one evaluator reused across row counts, against a fresh one per
        # call and the plain expressions
        shared = ps.LossContext(spec, ds.features, ds.labels).at(mask)
        for n in (1, 32, 300, 1500, 32):
            ctx = ps.LossContext(spec, ds.features[order[:n]], ds.labels[order[:n]])
            for _ in range(2):
                w = gen.normal(size=spec.param_count) * gen.uniform(0.2, 2.0)
                _, _, pre, loss, _, _ = _reference_pass(ctx, w, mask)
                assert ctx.at(mask).loss(w) == loss
                assert autodiff.forward_loss(ctx, w, shared) == loss
                hits = float(np.mean(np.argmax(pre[-1], axis=1) == ctx.labels))
                assert ctx.at(mask).accuracy(w) == hits
                assert autodiff.accuracy_on(ctx, w, shared) == hits

    def test_column_max_equals_reduce(self):
        # ties and signed zeros included; a zero max may differ in sign from
        # the reduction's, which the head's loss and log-sum-exp never show
        gen = np.random.default_rng(0)
        for classes in range(2, 17):
            logits = gen.choice([-2.5, -1.0, -0.0, 0.0, 1.0, 2.5], size=(400, classes))
            reduced = np.maximum.reduce(logits, axis=1, keepdims=True)
            np.testing.assert_array_equal(autodiff._row_max(logits), reduced)
            label_index = np.arange(400) * classes + gen.integers(0, classes, 400)
            loss, lse = autodiff._softmax_ce(logits, label_index)
            expected_loss, expected_lse = _head_with_reduce(logits, label_index)
            assert loss == expected_loss
            assert lse.tobytes() == expected_lse.tobytes()

    def test_workspace_for_another_mask_raises(self):
        # forward-only evaluators at two masks, used in turn, each evaluate
        # at their own mask; a mask of the wrong length is refused at ctx.at
        ctx, w = random_net_ctx(7)
        sparse = ps.dense_mask(ctx.spec) & ~ps.prunable_coords(ctx.spec)
        sparse[:3] = True
        masks = [ps.dense_mask(ctx.spec), sparse]
        evaluators = [ctx.at(mask) for mask in masks]
        for _ in range(2):
            for ev, mask in zip(evaluators, masks):
                _, _, pre, loss, _, _ = _reference_pass(ctx, w, mask)
                assert ev.loss(w) == loss
                assert ev.accuracy(w) == float(np.mean(np.argmax(pre[-1], axis=1) == ctx.labels))
        for mask in (np.ones(w.size + 1, dtype=bool), np.ones((1, w.size), dtype=bool)):
            with pytest.raises(DimensionMismatchError, match="mask length"):
                ctx.at(mask)

    def test_forward_only_pass_holds_no_backward_buffers(self):
        # gates and adjoints are made on a row count's first grad; the grad
        # after forward passes, and an operator's products, keep their bits
        spec = ps.NetworkSpec((2, 128, 128, 3))
        ds = ps.gen_spirals(100, 3, 0.15, ps.RngStream(5, 1))
        ctx = ps.LossContext(spec, ds.features, ds.labels)
        gen = np.random.default_rng(11)
        mask = (gen.random(spec.param_count) < 0.6) | ~ps.prunable_coords(spec)
        w = gen.normal(size=spec.param_count)
        ev = ctx.at(mask)
        ev.loss(w)
        ev.accuracy(w)
        rows = ev.rows(ctx.n)
        assert "gates" not in vars(rows) and "adjoints" not in vars(rows)
        assert "gradient" not in vars(ev)
        loss, g = reference_grad(ctx, w, mask)
        result = ev.grad(w)
        assert result.loss == loss and result.gradient.tobytes() == g.tobytes()
        assert "gates" in vars(rows) and "adjoints" in vars(rows)
        v = gen.normal(size=spec.param_count)
        assert ev.hvp_at(w)(v).tobytes() == reference_hvp(ctx, w, mask, v).tobytes()

    def test_operator_holds_no_gradient(self):
        # a point's state needs no gradient vector; grad makes it on first use
        ctx, w = random_net_ctx(8)
        ev = ctx.at(ps.dense_mask(ctx.spec)).hvp_at(w).evaluator
        assert "gradient" not in vars(ev)
        result = ev.grad(w)
        assert result.gradient is ev.gradient


class TestHvpOracle:
    def test_matches_fd_of_gradients(self):
        for seed in range(8):
            ctx, w = random_net_ctx(seed + 50)
            mask = ps.dense_mask(ctx.spec)
            v = ps.random_unit_direction(mask, ps.RngStream(seed, 0xABC))
            hv = ctx.at(mask).hvp_at(w)(v)
            fd = fd_hvp(ctx, w, mask, v)
            assert max_rel_err(hv, fd) < 1e-4

    def test_symmetry(self):
        for seed in range(5):
            ctx, w = random_net_ctx(seed + 90)
            mask = ps.dense_mask(ctx.spec)
            u = ps.random_unit_direction(mask, ps.RngStream(seed, 1))
            v = ps.random_unit_direction(mask, ps.RngStream(seed, 2))
            hessian = ctx.at(mask).hvp_at(w)
            lhs = float(hessian(u) @ v)
            rhs = float(hessian(v) @ u)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-12)

    def test_masked_hygiene_exact_zeros(self):
        ctx, w = random_net_ctx(200)
        gen = np.random.default_rng(3)
        mask = gen.random(w.size) < 0.6
        mask[~ps.prunable_coords(ctx.spec)] = True
        v = ps.random_unit_direction(mask, ps.RngStream(4))
        hv = ctx.at(mask).hvp_at(w)(v)
        g = ctx.at(mask).grad(w).gradient
        assert np.all(hv[~mask] == 0.0)
        assert np.all(g[~mask] == 0.0)

    def test_unmasked_v_is_projected(self):
        # restricted operator: passing v with mass on masked coords is the
        # same as passing mask * v
        ctx, w = random_net_ctx(201)
        mask = ps.dense_mask(ctx.spec)
        mask[:5] = False
        v = np.ones(w.size)
        hessian = ctx.at(mask).hvp_at(w)
        np.testing.assert_array_equal(hessian(v), hessian(v * mask))


class TestForwardLogits:
    def test_matches_hand_written_chain(self):
        ctx, w = random_net_ctx(5, layer_sizes=(2, 4, 4, 2))
        (W1, b1), (W2, b2), (W3, b3) = split_params(ctx.spec, w)
        h1 = np.maximum(ctx.features @ W1.T + b1, 0.0)
        h2 = np.maximum(h1 @ W2.T + b2, 0.0)
        expected = h2 @ W3.T + b3
        ev = ctx.at(ps.dense_mask(ctx.spec))
        _, pre = autodiff._forward(ctx, ev.masked_layers(w), ev.rows(ctx.n))
        np.testing.assert_array_equal(pre[-1], expected)
        hits = np.argmax(expected, axis=1) == ctx.labels
        assert ev.accuracy(w) == float(np.mean(hits))


class TestEvaluationsAreCounted:
    """Rebinding autodiff's passes sees every evaluation made through an
    evaluator, which the benchmark's per-stage counts rely on."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = dict.fromkeys(("forward_loss", "grad", "hvp"), 0)
        for name in counts:
            original = getattr(autodiff, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(autodiff, name, counted)
        return counts

    def test_context_methods(self, counts):
        ctx, w = random_net_ctx(3)
        ev = ctx.at(ps.dense_mask(ctx.spec))
        ev.loss(w)
        ev.grad(w)
        ev.hvp_at(w)(np.ones(w.size))
        assert counts == {"forward_loss": 1, "grad": 1, "hvp": 1}

    def test_train_counts_one_gradient_per_step(self, counts):
        spec = ps.NetworkSpec((2, 8, 2))
        data = ps.gen_spirals(16, 2, 0.2, ps.RngStream(0, 1))
        ctx = ps.LossContext(spec, data.features, data.labels)
        hp = ps.Hyperparams(
            epochs=2, batch_size=8, lr0=0.1, momentum=0.9, weight_decay=1e-4,
            decay_epochs=(1,), decay_factor=0.1, rewind_step=2, seed=5,
        )
        w0 = ps.init_params(spec, ps.RngStream(0, 3))
        _, _, record = ps.train(ctx, ctx, w0, ps.dense_mask(spec), hp)
        assert record.steps == 8
        assert counts["grad"] == record.steps

    def test_train_with_a_short_last_batch_counts_one_gradient_per_step(self, counts):
        spec = ps.NetworkSpec((2, 8, 2))
        data = ps.gen_spirals(15, 2, 0.2, ps.RngStream(0, 1))
        ctx = ps.LossContext(spec, data.features, data.labels)
        hp = ps.Hyperparams(
            epochs=3, batch_size=8, lr0=0.1, momentum=0.9, weight_decay=1e-4,
            decay_epochs=(), decay_factor=0.1, rewind_step=0, seed=5,
        )
        w0 = ps.init_params(spec, ps.RngStream(0, 3))
        _, _, record = ps.train(ctx, ctx, w0, ps.dense_mask(spec), hp)
        assert record.steps == 3 * 4  # 30 rows: batches of 8, 8, 8 and 6
        assert counts["grad"] == record.steps

    def test_lanczos_counts_one_product_per_iteration(self, counts):
        ctx, w = random_net_ctx(4, layer_sizes=(2, 8, 8, 2), n_samples=24)
        mask = ps.dense_mask(ctx.spec)
        report = ps.top_k_eigenvalues(ctx, w, mask, 3, ps.RngStream(6, 1))
        assert report.lanczos_iters == 43
        assert counts == {"forward_loss": 0, "grad": 0, "hvp": report.lanczos_iters}

    def test_hutchinson_counts_one_product_per_probe(self, counts):
        ctx, w = random_net_ctx(4)
        mask = ps.dense_mask(ctx.spec)
        diag = hutchinson_diagonal(ctx, w, mask, 7, ps.RngStream(6, 2))
        assert diag.shape == w.shape
        assert counts == {"forward_loss": 0, "grad": 0, "hvp": 7}

    def test_basin_radius_counts_every_probe(self, counts):
        ctx, w = random_net_ctx(3)
        mask = ps.dense_mask(ctx.spec)
        direction = ps.random_unit_direction(mask, ps.RngStream(5))
        cutoff = 2.0 * ctx.at(mask).loss(w)
        counts["forward_loss"] = 0
        ps.basin_radius(ctx.at(mask), w, direction, cutoff)
        probes = CountingContext(ctx)
        ps.basin_radius(probes.at(mask), w, direction, cutoff)
        assert counts["forward_loss"] == 2 * probes.calls > 2
