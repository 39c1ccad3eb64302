import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prunescope as ps
from prunescope.errors import MaskExhaustedError
from prunescope.pruning import Strategy, retrain_plan


def floor_rule_counts(start: int, fraction: float, rounds: int) -> list[int]:
    """Independent oracle: iterate active -= floor(fraction * active)."""
    counts = [start]
    active = start
    for _ in range(rounds):
        active -= int(fraction * active)
        counts.append(active)
    return counts


# frozen from the oracle above: 1000 weights, 20% per round, 10 rounds
FLOOR_SEQUENCE_1000 = [1000, 800, 640, 512, 410, 328, 263, 211, 169, 136, 109]


def test_floor_rule_oracle_frozen_values():
    assert floor_rule_counts(1000, 0.2, 10) == FLOOR_SEQUENCE_1000


class TestSparsity:
    def test_dense(self):
        assert ps.sparsity(np.ones(4, bool)) == 0.0

    def test_half(self):
        assert ps.sparsity(np.array([1, 0, 1, 0], bool)) == 0.5

    def test_ten_rounds_closed_form(self):
        # 20% per round on 1000 prunable weights: density tracks the oracle
        assert FLOOR_SEQUENCE_1000[-1] / 1000 == pytest.approx(0.8**10, abs=2e-3)


class TestMagnitudeMask:
    def test_smallest_pruned(self):
        w = np.array([0.5, -0.1, 0.3, -0.7])
        prunable = np.ones(4, bool)
        m = ps.magnitude_mask(w, np.ones(4, bool), 0.25, prunable)
        np.testing.assert_array_equal(m, [True, False, True, True])

    def test_tie_breaks_to_lower_index(self):
        w = np.array([0.2, -0.2, 0.9, 0.9])
        m = ps.magnitude_mask(w, np.ones(4, bool), 0.25, np.ones(4, bool))
        np.testing.assert_array_equal(m, [False, True, True, True])

    def test_iterated_counts_match_oracle(self):
        gen = np.random.default_rng(0)
        w = gen.normal(size=1000)
        prunable = np.ones(1000, bool)
        mask = np.ones(1000, bool)
        counts = [int(mask.sum())]
        for _ in range(10):
            mask = ps.magnitude_mask(w, mask, 0.2, prunable)
            counts.append(int(mask.sum()))
        assert counts == FLOOR_SEQUENCE_1000

    def test_biases_never_pruned(self):
        spec = ps.NetworkSpec((2, 4, 2))
        prunable = ps.prunable_coords(spec)
        w = ps.init_params(spec, ps.RngStream(0))
        w[~prunable] = 1e-9  # tiny biases must still survive
        m = ps.magnitude_mask(w, ps.dense_mask(spec), 0.5, prunable)
        assert m[~prunable].all()

    def test_previously_pruned_stay_pruned(self):
        gen = np.random.default_rng(1)
        w = gen.normal(size=50)
        prunable = np.ones(50, bool)
        m1 = ps.magnitude_mask(w, np.ones(50, bool), 0.3, prunable)
        m2 = ps.magnitude_mask(w, m1, 0.3, prunable)
        assert not (m2 & ~m1).any()

    @given(st.integers(0, 2**32), st.floats(0.05, 0.8))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, seed, fraction):
        gen = np.random.default_rng(seed)
        w = gen.normal(size=40)
        prunable = np.ones(40, bool)
        a = ps.magnitude_mask(w, np.ones(40, bool), fraction, prunable)
        b = ps.magnitude_mask(3.7 * w, np.ones(40, bool), fraction, prunable)
        np.testing.assert_array_equal(a, b)

    def test_exhausted(self):
        with pytest.raises(MaskExhaustedError):
            ps.magnitude_mask(
                np.array([1.0, 2.0]),
                np.array([True, False]),
                0.5,
                np.ones(2, bool),
            )


class TestPruneByMagnitude:
    def test_largest_pruned(self):
        w = np.array([0.5, -0.1, 0.3, -0.7])
        m = ps.prune_by_magnitude(w, np.ones(4, bool), 2, np.ones(4, bool), largest=True)
        np.testing.assert_array_equal(m, [False, True, True, False])

    def test_largest_tie_breaks_to_lower_index(self):
        w = np.array([0.1, 0.9, -0.9, 0.2])
        m = ps.prune_by_magnitude(w, np.ones(4, bool), 1, np.ones(4, bool), largest=True)
        np.testing.assert_array_equal(m, [True, False, True, True])

    @pytest.mark.parametrize(
        "largest, survivors",
        [(False, [False, True, True, False, False, True]),
         (True, [False, True, False, True, True, False])],
    )
    def test_only_active_prunable_coordinates_dropped(self, largest, survivors):
        # index 0 (largest |w|) is already pruned; index 1 (smallest) is a bias
        w = np.array([5.0, 0.0, 4.0, 1.0, 2.0, 3.0])
        current = np.array([False, True, True, True, True, True])
        prunable = np.array([True, False, True, True, True, True])
        m = ps.prune_by_magnitude(w, current, 2, prunable, largest=largest)
        np.testing.assert_array_equal(m, survivors)


class TestRandomMask:
    def test_count_contract(self):
        m = ps.random_mask(np.ones(10, bool), 0.5, ps.RngStream(0), np.ones(10, bool))
        assert int(m.sum()) == 5

    def test_deterministic(self):
        a = ps.random_mask(np.ones(30, bool), 0.2, ps.RngStream(3), np.ones(30, bool))
        b = ps.random_mask(np.ones(30, bool), 0.2, ps.RngStream(3), np.ones(30, bool))
        np.testing.assert_array_equal(a, b)

    def test_pruned_subset_of_active(self):
        current = np.ones(20, bool)
        current[:5] = False
        m = ps.random_mask(current, 0.4, ps.RngStream(1), np.ones(20, bool))
        assert not (m & ~current).any()
        assert not m[:5].any()


class TestProject:
    def test_definition(self):
        out = ps.project(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1], bool))
        np.testing.assert_array_equal(out, [1.0, 0.0, 3.0])

    def test_reverse_projection_identity(self):
        w = np.array([1.0, 0.0, 3.0])
        np.testing.assert_array_equal(ps.project(w, np.ones(3, bool)), w)

    def test_support_shrinks(self):
        gen = np.random.default_rng(0)
        w = gen.normal(size=30)
        target = gen.random(30) < 0.5
        out = ps.project(w, target)
        assert np.count_nonzero(out) <= np.count_nonzero(w)


def _small_cfg(strategy="weight_rewind", levels=2, seed=0):
    hp = ps.Hyperparams(
        epochs=2,
        batch_size=8,
        lr0=0.1,
        momentum=0.9,
        weight_decay=1e-4,
        decay_epochs=(),
        decay_factor=0.1,
        rewind_step=2,
        seed=seed,
    )
    return ps.ImpConfig(
        levels=levels,
        prune_fraction_per_round=0.2,
        strategy=Strategy(strategy),
        hp=hp,
        ft_lr=0.01,
        ft_epochs=1,
    )


def _small_problem(seed=0):
    spec = ps.NetworkSpec((2, 8, 2))
    train_ds = ps.gen_spirals(16, 2, 0.2, ps.RngStream(seed, 10))
    test_ds = ps.gen_spirals(8, 2, 0.2, ps.RngStream(seed, 11))
    return spec, ps.LossContext(spec, train_ds.features, train_ds.labels), test_ds


class TestImpRun:
    def test_degenerate_zero_levels(self):
        spec, ctx, test_ds = _small_problem()
        result = ps.imp_run(ctx, test_ds, _small_cfg(levels=0))
        assert len(result.levels) == 1
        assert result.levels[0].mask.all()

    def test_sparsity_strictly_increases(self):
        spec, ctx, test_ds = _small_problem(1)
        result = ps.imp_run(ctx, test_ds, _small_cfg(levels=3))
        sparsities = [ps.sparsity(l.mask) for l in result.levels]
        assert all(b > a for a, b in zip(sparsities, sparsities[1:]))

    def test_mask_monotone_and_solutions_masked(self):
        spec, ctx, test_ds = _small_problem(2)
        result = ps.imp_run(ctx, test_ds, _small_cfg(levels=3))
        for prev, cur in zip(result.levels, result.levels[1:]):
            assert not (cur.mask & ~prev.mask).any()
        for level in result.levels:
            np.testing.assert_array_equal(
                ps.apply_mask(level.solution, level.mask), level.solution
            )

    def test_weight_rewind_start_agrees_with_rewind_point(self):
        spec, ctx, test_ds = _small_problem(3)
        cfg = _small_cfg(levels=1)
        result = ps.imp_run(ctx, test_ds, cfg)
        mask1 = result.levels[1].mask
        start, _, offset = retrain_plan(
            cfg, 1, mask1, result.levels[0].solution, result.w_rewind, ctx
        )
        np.testing.assert_array_equal(start[mask1], result.w_rewind[mask1])
        assert offset == cfg.hp.rewind_step

    @pytest.mark.parametrize(
        "strategy", ["weight_rewind", "lr_rewind", "fine_tune", "random_reinit"]
    )
    def test_all_strategies_run(self, strategy):
        spec, ctx, test_ds = _small_problem(4)
        result = ps.imp_run(ctx, test_ds, _small_cfg(strategy=strategy, levels=1))
        assert len(result.levels) == 2

    def test_deterministic(self):
        spec, ctx, test_ds = _small_problem(5)
        a = ps.imp_run(ctx, test_ds, _small_cfg(levels=2, seed=9))
        b = ps.imp_run(ctx, test_ds, _small_cfg(levels=2, seed=9))
        for la, lb in zip(a.levels, b.levels):
            np.testing.assert_array_equal(la.solution, lb.solution)


class TestVariantRuns:
    def test_one_shot_mask_matches_single_round_at_one_round_target(self):
        spec, ctx, test_ds = _small_problem(6)
        cfg = _small_cfg(levels=1)
        result = ps.imp_run(ctx, test_ds, cfg)
        target = ps.sparsity(result.levels[1].mask)
        art = ps.one_shot_run(
            ctx, test_ds, result.levels[0], result.w_rewind, target, cfg.hp
        )
        np.testing.assert_array_equal(art.mask, result.levels[1].mask)

    def test_one_shot_sparsity_matches_deeper_target(self):
        spec, ctx, test_ds = _small_problem(7)
        cfg = _small_cfg(levels=3)
        result = ps.imp_run(ctx, test_ds, cfg)
        target = ps.sparsity(result.levels[3].mask)
        art = ps.one_shot_run(
            ctx, test_ds, result.levels[0], result.w_rewind, target, cfg.hp
        )
        assert int(art.mask.sum()) == int(result.levels[3].mask.sum())

    def test_random_pruned_fraction_matches_level_counts(self):
        spec, ctx, test_ds = _small_problem(8)
        cfg = _small_cfg(levels=1)
        result = ps.imp_run(ctx, test_ds, cfg)
        art = ps.random_pruned_run(
            ctx,
            test_ds,
            result.levels[0],
            cfg.hp,
            ps.RngStream(0, 77),
            result.w_rewind,
            fraction=0.2,
        )
        assert int(art.mask.sum()) == int(result.levels[1].mask.sum())

    def test_random_pruned_deterministic_mask(self):
        spec, ctx, test_ds = _small_problem(9)
        cfg = _small_cfg(levels=1)
        result = ps.imp_run(ctx, test_ds, cfg)
        kwargs = dict(fraction=0.2)
        a = ps.random_pruned_run(
            ctx, test_ds, result.levels[0], cfg.hp, ps.RngStream(5, 1), result.w_rewind, **kwargs
        )
        b = ps.random_pruned_run(
            ctx, test_ds, result.levels[0], cfg.hp, ps.RngStream(5, 1), result.w_rewind, **kwargs
        )
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_fine_tune_and_reinit_masks_match_magnitude_round(self):
        spec, ctx, test_ds = _small_problem(10)
        cfg = _small_cfg(levels=1)
        result = ps.imp_run(ctx, test_ds, cfg)
        expected = ps.magnitude_mask(
            result.levels[0].solution,
            result.levels[0].mask,
            0.2,
            ps.prunable_coords(spec),
        )
        ft = ps.fine_tune_run(ctx, test_ds, result.levels[0], 0.2, cfg.hp, ft_epochs=1)
        ri = ps.random_reinit_run(ctx, test_ds, result.levels[0], 0.2, cfg.hp)
        np.testing.assert_array_equal(ft.mask, expected)
        np.testing.assert_array_equal(ri.mask, expected)


class TestPerLayerPruning:
    def test_ranks_within_each_layer(self):
        from prunescope.model import layer_slices

        spec = ps.NetworkSpec((2, 4, 2))
        prunable = ps.prunable_coords(spec)
        w = np.zeros(spec.param_count)
        slices = [w_sl for w_sl, _, _ in layer_slices(spec)]
        # first layer all tiny, second layer all large: global pruning would
        # hit only layer one; per-layer removes a share of each
        w[slices[0]] = np.linspace(0.01, 0.08, 8)
        w[slices[1]] = np.linspace(1.0, 1.7, 8)
        per_layer = ps.magnitude_mask(w, ps.dense_mask(spec), 0.5, prunable, layer_slices=slices)
        globally = ps.magnitude_mask(w, ps.dense_mask(spec), 0.5, prunable)
        assert int(per_layer[slices[0]].sum()) == 4
        assert int(per_layer[slices[1]].sum()) == 4
        assert int(globally[slices[1]].sum()) == 8  # global spares the big layer
