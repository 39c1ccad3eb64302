from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import spirals_context

import prunescope as ps
from prunescope.errors import MaskExhaustedError
from prunescope.pruning import IMPACT_MASK_KEY, VARIANT_TABLE, Strategy, retrain_plan


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
    """Projection onto another level's mask is ``apply_mask``."""

    def test_definition(self):
        out = ps.apply_mask(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1], bool))
        np.testing.assert_array_equal(out, [1.0, 0.0, 3.0])

    def test_reverse_projection_identity(self):
        w = np.array([1.0, 0.0, 3.0])
        np.testing.assert_array_equal(ps.apply_mask(w, np.ones(3, bool)), w)

    def test_support_shrinks(self):
        gen = np.random.default_rng(0)
        w = gen.normal(size=30)
        target = gen.random(30) < 0.5
        out = ps.apply_mask(w, target)
        assert np.count_nonzero(out) <= np.count_nonzero(w)


def imp_run(ctx, test_ctx, cfg):
    """Level 0 and every IMP level (``levels``), and the rewind vector (``w_rewind``)."""
    dense, _, w_rewind = ps.imp_dense(ctx, test_ctx, cfg)
    levels = [dense, *ps.imp_levels(ctx, test_ctx, cfg, dense, w_rewind)]
    return SimpleNamespace(levels=levels, w_rewind=w_rewind)


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
    test_ctx = spirals_context(spec, 8, 2, 0.2, ps.RngStream(seed, 11))
    return spec, ps.LossContext(spec, train_ds.features, train_ds.labels), test_ctx


class TestImpRun:
    def test_degenerate_zero_levels(self):
        spec, ctx, test_ctx = _small_problem()
        result = imp_run(ctx, test_ctx, _small_cfg(levels=0))
        assert len(result.levels) == 1
        assert result.levels[0].mask.all()

    def test_sparsity_strictly_increases(self):
        spec, ctx, test_ctx = _small_problem(1)
        result = imp_run(ctx, test_ctx, _small_cfg(levels=3))
        sparsities = [ps.sparsity(l.mask) for l in result.levels]
        assert all(b > a for a, b in zip(sparsities, sparsities[1:]))

    def test_mask_monotone_and_solutions_masked(self):
        spec, ctx, test_ctx = _small_problem(2)
        result = imp_run(ctx, test_ctx, _small_cfg(levels=3))
        for prev, cur in zip(result.levels, result.levels[1:]):
            assert not (cur.mask & ~prev.mask).any()
        for level in result.levels:
            np.testing.assert_array_equal(
                ps.apply_mask(level.solution, level.mask), level.solution
            )

    def test_weight_rewind_start_agrees_with_rewind_point(self):
        spec, ctx, test_ctx = _small_problem(3)
        cfg = _small_cfg(levels=1)
        result = imp_run(ctx, test_ctx, cfg)
        mask1 = result.levels[1].mask
        start, _, offset = retrain_plan(
            cfg, 1, 1, mask1, result.levels[0].solution, result.w_rewind, ctx
        )
        np.testing.assert_array_equal(start[mask1], result.w_rewind[mask1])
        assert offset == cfg.hp.rewind_step

    @pytest.mark.parametrize(
        "strategy", ["weight_rewind", "lr_rewind", "fine_tune", "random_reinit"]
    )
    def test_all_strategies_run(self, strategy):
        spec, ctx, test_ctx = _small_problem(4)
        result = imp_run(ctx, test_ctx, _small_cfg(strategy=strategy, levels=1))
        assert len(result.levels) == 2

    def test_deterministic(self):
        spec, ctx, test_ctx = _small_problem(5)
        a = imp_run(ctx, test_ctx, _small_cfg(levels=2, seed=9))
        b = imp_run(ctx, test_ctx, _small_cfg(levels=2, seed=9))
        for la, lb in zip(a.levels, b.levels):
            np.testing.assert_array_equal(la.solution, lb.solution)


    def test_continued_loop_matches_one_run(self):
        spec, ctx, test_ctx = _small_problem(11)
        cfg = _small_cfg(levels=3, seed=4)
        whole = imp_run(ctx, test_ctx, cfg)
        # level 1 rebuilt from its vectors alone, as the pipeline rebuilds it from disk
        one = whole.levels[1]
        start = ps.LevelArtifacts(1, one.mask.copy(), one.solution.copy(), ps.TrainRecord())
        levels = ps.imp_levels(ctx, test_ctx, cfg, start, whole.w_rewind.copy())
        rest = [next(levels)]  # each level is yielded as soon as it is trained
        assert rest[0].level == 2
        rest += levels
        assert [art.level for art in rest] == [2, 3]
        for la, lb in zip(rest, whole.levels[2:], strict=True):
            np.testing.assert_array_equal(la.mask, lb.mask)
            np.testing.assert_array_equal(la.solution, lb.solution)

    def test_round_that_prunes_nothing_raises(self):
        spec = ps.NetworkSpec((2, 2, 3))
        assert int(ps.prunable_coords(spec).sum()) == 10
        train_ds = ps.gen_spirals(8, 3, 0.2, ps.RngStream(0, 10))
        test_ctx = spirals_context(spec, 4, 3, 0.2, ps.RngStream(0, 11))
        ctx = ps.LossContext(spec, train_ds.features, train_ds.labels)
        # floor(0.05 * 10) = 0: the first round would retrain the dense mask
        cfg = replace(_small_cfg(levels=2), prune_fraction_per_round=0.05)
        with pytest.raises(MaskExhaustedError, match="level 1"):
            imp_run(ctx, test_ctx, cfg)


_VARIANT = {variant.name: variant for variant in VARIANT_TABLE}


def _variant(name, ctx, test_ctx, cfg, result, source_level=0):
    """Run one comparison row against an IMP result, targeting its last level."""
    return ps.variant_run(
        ctx, test_ctx, cfg, _VARIANT[name], result.levels[source_level],
        result.w_rewind, ps.sparsity(result.levels[-1].mask),
    )


def test_random_mask_keys_are_distinct():
    # every random mask drawn from RANDOM_MASK_STREAM has a key of its own
    keys = [v.mask_key for v in VARIANT_TABLE if v.rule == "random"] + [IMPACT_MASK_KEY]
    assert len(set(keys)) == len(keys)


class TestVariantRuns:
    def test_table_rows(self):
        assert [v.name for v in VARIANT_TABLE] == [
            "one_shot", "fine_tune", "random_reinit", "rpn1", "rpn2"
        ]
        assert [v.seed_key for v in VARIANT_TABLE] == [1_001, 1_002, 1_003, 1_004, 1_004]
        assert [v.source_level(10) for v in VARIANT_TABLE] == [0, 9, 9, 9, 0]

    def test_one_shot_mask_matches_single_round_at_one_round_target(self):
        spec, ctx, test_ctx = _small_problem(6)
        cfg = _small_cfg(levels=1)
        result = imp_run(ctx, test_ctx, cfg)
        art = _variant("one_shot", ctx, test_ctx, cfg, result)
        np.testing.assert_array_equal(art.mask, result.levels[1].mask)
        assert art.level == 1

    def test_one_shot_sparsity_matches_deeper_target(self):
        spec, ctx, test_ctx = _small_problem(7)
        cfg = _small_cfg(levels=3)
        result = imp_run(ctx, test_ctx, cfg)
        art = _variant("one_shot", ctx, test_ctx, cfg, result)
        assert int(art.mask.sum()) == int(result.levels[3].mask.sum())

    def test_random_pruned_fraction_matches_level_counts(self):
        spec, ctx, test_ctx = _small_problem(8)
        cfg = _small_cfg(levels=1)
        result = imp_run(ctx, test_ctx, cfg)
        for name in ("rpn1", "rpn2"):
            art = _variant(name, ctx, test_ctx, cfg, result)
            assert int(art.mask.sum()) == int(result.levels[1].mask.sum())

    def test_random_pruned_deterministic_mask(self):
        spec, ctx, test_ctx = _small_problem(9)
        cfg = _small_cfg(levels=1)
        result = imp_run(ctx, test_ctx, cfg)
        a = _variant("rpn1", ctx, test_ctx, cfg, result)
        b = _variant("rpn1", ctx, test_ctx, cfg, result)
        np.testing.assert_array_equal(a.mask, b.mask)
        # rpn1 and rpn2 draw from different mask streams
        c = _variant("rpn2", ctx, test_ctx, cfg, result)
        assert not np.array_equal(a.mask, c.mask)

    def test_fine_tune_and_reinit_masks_match_magnitude_round(self):
        spec, ctx, test_ctx = _small_problem(10)
        cfg = _small_cfg(levels=1)
        result = imp_run(ctx, test_ctx, cfg)
        expected = ps.magnitude_mask(
            result.levels[0].solution,
            result.levels[0].mask,
            0.2,
            ps.prunable_coords(spec),
        )
        ft = _variant("fine_tune", ctx, test_ctx, cfg, result)
        ri = _variant("random_reinit", ctx, test_ctx, cfg, result)
        np.testing.assert_array_equal(ft.mask, expected)
        np.testing.assert_array_equal(ri.mask, expected)

    @pytest.mark.parametrize("name", ["fine_tune", "random_reinit", "rpn1"])
    def test_one_round_that_prunes_nothing_raises(self, name):
        spec = ps.NetworkSpec((2, 2, 3))
        train_ds = ps.gen_spirals(8, 3, 0.2, ps.RngStream(0, 10))
        test_ctx = spirals_context(spec, 4, 3, 0.2, ps.RngStream(0, 11))
        ctx = ps.LossContext(spec, train_ds.features, train_ds.labels)
        # floor(0.05 * 10) = 0: one round off the dense mask prunes nothing
        cfg = replace(_small_cfg(levels=0), prune_fraction_per_round=0.05)
        result = imp_run(ctx, test_ctx, cfg)
        with pytest.raises(MaskExhaustedError, match="prunes none of 10"):
            _variant(name, ctx, test_ctx, cfg, result)


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

    def test_comparison_masks_follow_per_layer_ranking(self):
        from prunescope.model import layer_slices

        spec = ps.NetworkSpec((2, 16, 16, 3))
        train_ds = ps.gen_spirals(16, 3, 0.2, ps.RngStream(3, 10))
        test_ctx = spirals_context(spec, 8, 3, 0.2, ps.RngStream(3, 11))
        ctx = ps.LossContext(spec, train_ds.features, train_ds.labels)
        cfg = replace(_small_cfg(levels=2), per_layer=True)
        result = imp_run(ctx, test_ctx, cfg)
        level2 = result.levels[2].mask
        kept = [int(level2[w_sl].sum()) for w_sl, _, _ in layer_slices(spec)]
        assert kept == [21, 164, 32]  # 32, 256, 48 weights, two 20% rounds each
        for name in ("fine_tune", "random_reinit"):
            art = _variant(name, ctx, test_ctx, cfg, result, source_level=1)
            np.testing.assert_array_equal(art.mask, level2)
        # the to-target rows still rank globally, to level 2's overall count
        one_shot = _variant("one_shot", ctx, test_ctx, cfg, result)
        globally = ps.magnitude_mask(
            result.levels[0].solution, result.levels[0].mask, None,
            ps.prunable_coords(spec), target_sparsity=ps.sparsity(level2),
        )
        np.testing.assert_array_equal(one_shot.mask, globally)

    def test_zero_count_checks_the_combined_mask(self):
        from prunescope.model import layer_slices

        spec = ps.NetworkSpec((2, 4, 2))
        prunable = ps.prunable_coords(spec)
        w = ps.init_params(spec, ps.RngStream(2))
        slices = [w_sl for w_sl, _, _ in layer_slices(spec)]
        current = ps.dense_mask(spec)
        current[slices[1]] = [True] * 4 + [False] * 4
        # floor(0.2 * 8) = 1 in layer one, floor(0.2 * 4) = 0 in layer two
        m = ps.magnitude_mask(w, current, 0.2, prunable, layer_slices=slices)
        assert int((current & ~m).sum()) == 1
        # floor(0.1 * 8) = floor(0.1 * 4) = 0: the combined round prunes nothing
        with pytest.raises(MaskExhaustedError, match="prunes none of 12"):
            ps.magnitude_mask(w, current, 0.1, prunable, layer_slices=slices)
        with pytest.raises(ValueError, match="ranks globally"):
            ps.magnitude_mask(w, current, None, prunable, slices, target_sparsity=0.5)
