import math

import numpy as np
import pytest
from helpers import spirals_context

import prunescope as ps
from prunescope import Hyperparams, lr_at, train
from prunescope.data import epoch_batches
from prunescope.trainer import SHUFFLE_STREAM


def _hp(**overrides):
    base = dict(
        epochs=3,
        batch_size=8,
        lr0=0.1,
        momentum=0.9,
        weight_decay=1e-4,
        decay_epochs=(2,),
        decay_factor=0.1,
        rewind_step=2,
        seed=5,
    )
    base.update(overrides)
    return Hyperparams(**base)


def _setup(seed=0, n_per_class=16):
    spec = ps.NetworkSpec((2, 8, 2))
    train_ds = ps.gen_spirals(n_per_class, 2, 0.2, ps.RngStream(seed, 1))
    test_ctx = spirals_context(spec, 8, 2, 0.2, ps.RngStream(seed, 2))
    ctx = ps.LossContext(spec, train_ds.features, train_ds.labels)
    w0 = ps.init_params(spec, ps.RngStream(seed, 3))
    return spec, ctx, test_ctx, w0


class TestLrAt:
    def test_schedule_boundaries(self):
        hp = _hp(epochs=160, decay_epochs=(80, 120), lr0=0.1, decay_factor=0.1)
        spe = 10
        assert lr_at(hp, 0, spe) == 0.1
        assert lr_at(hp, 79 * spe + 9, spe) == 0.1
        assert lr_at(hp, 80 * spe, spe) == pytest.approx(0.01)
        assert lr_at(hp, 130 * spe, spe) == pytest.approx(0.001)

    def test_no_decay(self):
        hp = _hp(decay_epochs=())
        assert lr_at(hp, 10_000, 5) == hp.lr0


class TestHyperparamsValidation:
    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            _hp(momentum=1.0)

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_rejects_counts_below_one(self, field):
        overrides = {field: 0, "decay_epochs": ()}
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            _hp(**overrides)

    def test_rejects_decay_after_end(self):
        with pytest.raises(ValueError):
            _hp(decay_epochs=(5,), epochs=3)


class TestSgdSteps:
    """Hand-checkable update arithmetic, driven through the real loop."""

    @staticmethod
    def _one_step(w0, lr, momentum, weight_decay, grad_value):
        velocity = momentum * 0.0 + (grad_value + weight_decay * w0)
        return w0 - lr * velocity

    def test_plain_step(self):
        # loss = w^2/2, grad = w: from w=1 with lr 0.5 -> 0.5
        assert self._one_step(1.0, 0.5, 0.0, 0.0, 1.0) == 0.5

    def test_weight_decay_step(self):
        # effective gradient 1 + 0.5*1 = 1.5 -> w = 1 - 0.5*1.5 = 0.25
        assert self._one_step(1.0, 0.5, 0.0, 0.5, 1.0) == 0.25

    def test_train_matches_manual_update(self):
        # one full-batch epoch, momentum 0: w1 = w0 - lr * (g + wd * w0)
        spec, ctx, test_ctx, w0 = _setup(7, n_per_class=4)
        mask = ps.dense_mask(spec)
        hp = _hp(
            epochs=1, batch_size=ctx.n, lr0=0.3, momentum=0.0,
            weight_decay=0.01, decay_epochs=(), rewind_step=0,
        )
        final, _, _ = train(ctx, test_ctx, w0, mask, hp)
        g = ctx.at(mask).grad(w0).gradient
        expected = (w0 - 0.3 * (g + 0.01 * w0)) * mask
        # the full batch is still a permutation, so the mean's summation
        # order differs from ctx order by an ulp
        np.testing.assert_allclose(final, expected, rtol=1e-13, atol=1e-16)


class TestTrain:
    def test_bit_identical_given_seed(self):
        spec, ctx, test_ctx, w0 = _setup()
        mask = ps.dense_mask(spec)
        f1, r1, rec1 = train(ctx, test_ctx, w0, mask, _hp())
        f2, r2, rec2 = train(ctx, test_ctx, w0, mask, _hp())
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(r1, r2)
        assert rec1.train_loss == rec2.train_loss

    def test_masked_coordinates_stay_zero(self):
        spec, ctx, test_ctx, w0 = _setup(1)
        mask = ps.dense_mask(spec)
        gen = np.random.default_rng(0)
        weight_coords = np.flatnonzero(ps.prunable_coords(spec))
        mask[gen.choice(weight_coords, size=10, replace=False)] = False
        final, rewind, record = train(
            ctx, test_ctx, w0, mask, _hp(), record_snapshots=True
        )
        assert np.all(final[~mask] == 0.0)
        assert np.all(rewind[~mask] == 0.0)
        for snapshot in record.epoch_params:
            assert np.all(snapshot[~mask] == 0.0)

    def test_loss_decreases(self):
        spec, ctx, test_ctx, w0 = _setup(2, n_per_class=32)
        hp = _hp(epochs=8, decay_epochs=(6,), lr0=0.05, rewind_step=3)
        _, _, record = train(ctx, test_ctx, w0, ps.dense_mask(spec), hp)
        assert record.train_loss[-1] < record.train_loss[0]

    def test_rewind_snapshot_position(self):
        spec, ctx, test_ctx, w0 = _setup(3)
        mask = ps.dense_mask(spec)
        hp = _hp(rewind_step=0)
        _, rewind, _ = train(ctx, test_ctx, w0, mask, hp)
        np.testing.assert_array_equal(rewind, ps.apply_mask(w0, mask))

    def test_record_lengths(self):
        spec, ctx, test_ctx, w0 = _setup(4)
        hp = _hp(epochs=4, decay_epochs=(3,))
        _, _, record = train(ctx, test_ctx, w0, ps.dense_mask(spec), hp)
        assert len(record.train_loss) == 4
        assert len(record.test_acc) == 4
        assert record.steps == 4 * int(np.ceil(ctx.n / hp.batch_size))

    def test_record_lr_follows_offset_schedule(self):
        spec, ctx, test_ctx, w0 = _setup(4)
        hp = _hp(epochs=4, decay_epochs=(1, 3), decay_factor=0.5)
        spe = int(np.ceil(ctx.n / hp.batch_size))
        offset = spe + 3  # mid-way through schedule epoch 1
        _, _, record = train(
            ctx, test_ctx, w0, ps.dense_mask(spec), hp, schedule_offset=offset
        )
        assert record.lr == [lr_at(hp, offset + e * spe, spe) for e in range(4)]
        # schedule epochs 1..4 have passed one, one, two and two decays
        assert record.lr == [0.05, 0.05, 0.025, 0.025]

    def test_schedule_offset_changes_updates(self):
        spec, ctx, test_ctx, w0 = _setup(5)
        mask = ps.dense_mask(spec)
        hp = _hp(epochs=2, decay_epochs=(1,))
        a, _, _ = train(ctx, test_ctx, w0, mask, hp, schedule_offset=0)
        spe = int(np.ceil(ctx.n / hp.batch_size))
        b, _, _ = train(ctx, test_ctx, w0, mask, hp, schedule_offset=spe)
        assert not np.array_equal(a, b)

    def test_divergence_raises(self):
        spec, ctx, test_ctx, _ = _setup(6)
        w_bad = np.full(spec.param_count, 30.0)
        # lr * weight_decay >> 1 multiplies the weights every step
        hp = _hp(
            lr0=100.0, weight_decay=0.5, epochs=2, decay_epochs=(),
            momentum=0.0, rewind_step=0,
        )
        with pytest.raises(ps.errors.DivergenceError) as excinfo:
            train(ctx, test_ctx, w_bad, ps.dense_mask(spec), hp)
        assert excinfo.value.step >= 0


def reference_train(ctx, test, start, mask, hp, schedule_offset):
    """The training loop with a fresh context per batch and the update as
    plain, allocating expressions."""
    spe = math.ceil(ctx.n / hp.batch_size)
    w = ps.apply_mask(start, mask)
    velocity = np.zeros_like(w)
    shuffle = ps.RngStream(hp.seed, SHUFFLE_STREAM)
    rewind, snapshots, losses, accs = None, [], [], []
    step = 0
    for epoch in range(hp.epochs):
        loss_sum = 0.0
        for idx in epoch_batches(ctx.n, hp.batch_size, epoch, shuffle):
            batch = ps.LossContext(ctx.spec, ctx.features[idx], ctx.labels[idx])
            result = batch.at(mask).grad(w)
            update = result.gradient + hp.weight_decay * w
            velocity = hp.momentum * velocity + update
            w = w - lr_at(hp, schedule_offset + step, spe) * velocity
            w *= mask
            step += 1
            loss_sum += result.loss * idx.size
            if step == hp.rewind_step:
                rewind = w.copy()
        losses.append(loss_sum / ctx.n)
        accs.append(test.at(mask).accuracy(w))
        snapshots.append(w.copy())
    return w, rewind, losses, accs, snapshots


class TestInPlaceUpdate:
    def test_masked_offset_run_matches_reference_bytes(self):
        spec = ps.NetworkSpec((2, 24, 24, 3))
        train_ds = ps.gen_spirals(40, 3, 0.15, ps.RngStream(8, 1))
        test_ctx = spirals_context(spec, 20, 3, 0.15, ps.RngStream(8, 2))
        ctx = ps.LossContext(spec, train_ds.features, train_ds.labels)
        w0 = ps.init_params(spec, ps.RngStream(8, 3))
        gen = np.random.default_rng(8)
        mask = (gen.random(spec.param_count) < 0.5) | ~ps.prunable_coords(spec)
        # 15 steps per epoch; offset 200 starts in schedule epoch 13 and
        # crosses both decays
        hp = _hp(epochs=16, batch_size=8, decay_epochs=(14, 15), rewind_step=7)
        final, rewind, record = train(
            ctx, test_ctx, w0, mask, hp, schedule_offset=200, record_snapshots=True
        )
        ref_final, ref_rewind, losses, accs, snapshots = reference_train(
            ctx, test_ctx, w0, mask, hp, 200
        )
        assert final.tobytes() == ref_final.tobytes()
        assert rewind.tobytes() == ref_rewind.tobytes()
        assert record.train_loss == losses
        assert record.test_acc == accs
        assert len(record.epoch_params) == len(snapshots) == 16
        for got, want in zip(record.epoch_params, snapshots):
            assert got.tobytes() == want.tobytes()
        assert record.lr[0] == 0.1 and record.lr[-1] == pytest.approx(0.001)

    def test_short_last_batch_matches_reference_bytes(self):
        # 120 rows in batches of 7: every epoch ends with a 1-row batch, so
        # the run's workspace holds buffers for two batch sizes
        spec = ps.NetworkSpec((2, 24, 24, 3))
        train_ds = ps.gen_spirals(40, 3, 0.15, ps.RngStream(9, 1))
        test_ctx = spirals_context(spec, 20, 3, 0.15, ps.RngStream(9, 2))
        ctx = ps.LossContext(spec, train_ds.features, train_ds.labels)
        w0 = ps.init_params(spec, ps.RngStream(9, 3))
        gen = np.random.default_rng(9)
        mask = (gen.random(spec.param_count) < 0.5) | ~ps.prunable_coords(spec)
        hp = _hp(epochs=4, batch_size=7, decay_epochs=(2,), rewind_step=20)
        final, rewind, record = train(
            ctx, test_ctx, w0, mask, hp, schedule_offset=5, record_snapshots=True
        )
        ref_final, ref_rewind, losses, accs, snapshots = reference_train(
            ctx, test_ctx, w0, mask, hp, 5
        )
        assert record.steps == 4 * 18
        assert final.tobytes() == ref_final.tobytes()
        assert rewind.tobytes() == ref_rewind.tobytes()
        assert record.train_loss == losses
        assert record.test_acc == accs
        for got, want in zip(record.epoch_params, snapshots):
            assert got.tobytes() == want.tobytes()
