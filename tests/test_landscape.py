import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    CountingContext,
    FlatContext,
    QuadraticContext,
    diag_quadratic,
    fd_hessian,
    random_net_ctx,
    spirals_context,
)

import prunescope as ps
from prunescope.errors import DegenerateProfileError, UndefinedCosineError
from prunescope.landscape import (
    RADIUS_START,
    RADIUS_TOL,
    EigenReport,
    barrier_height,
    exact_diagonal,
    hutchinson_diagonal,
)


def ones(n):
    return np.ones(n, dtype=bool)


class TestTopKEigenvalues:
    def test_known_diagonal_spectrum(self):
        ctx = diag_quadratic([5.0, 3.0, 1.0])
        rep = ps.top_k_eigenvalues(ctx, np.zeros(3), ones(3), 2, ps.RngStream(0))
        np.testing.assert_allclose(rep.eigenvalues, [5.0, 3.0], atol=1e-8)

    def test_matches_dense_fd_hessian_oracle(self):
        # tiny net (<= 30 params): dense finite-difference Hessian + eigh
        ctx, w = random_net_ctx(17, layer_sizes=(2, 4, 2))
        mask = ones(w.size)
        H = fd_hessian(ctx, w, mask)
        ref = np.sort(np.linalg.eigvalsh(H))[::-1]
        rep = ps.top_k_eigenvalues(ctx, w, mask, 5, ps.RngStream(1))
        for mine, theirs in zip(rep.eigenvalues, ref):
            assert abs(mine - theirs) / abs(theirs) < 1e-5

    def test_masked_coordinate_removes_its_eigenvalue(self):
        ctx = diag_quadratic([5.0, 3.0, 1.0])
        mask = np.array([True, False, True])
        rep = ps.top_k_eigenvalues(ctx, np.zeros(3), mask, 2, ps.RngStream(2))
        np.testing.assert_allclose(rep.eigenvalues, [5.0, 1.0], atol=1e-8)

    def test_subspace_consistency_random_diag(self):
        gen = np.random.default_rng(0)
        diag = gen.uniform(0.5, 4.0, size=8)
        ctx = diag_quadratic(diag)
        full = ps.top_k_eigenvalues(ctx, np.zeros(8), ones(8), 8, ps.RngStream(3))
        mask = ones(8)
        mask[2] = False
        pruned = ps.top_k_eigenvalues(ctx, np.zeros(8), mask, 7, ps.RngStream(4))
        expected = np.sort(np.delete(diag, 2))[::-1]
        np.testing.assert_allclose(pruned.eigenvalues, expected, atol=1e-8)
        np.testing.assert_allclose(full.eigenvalues, np.sort(diag)[::-1], atol=1e-8)

    def test_deterministic(self):
        ctx, w = random_net_ctx(18, layer_sizes=(2, 4, 2))
        a = ps.top_k_eigenvalues(ctx, w, ones(w.size), 4, ps.RngStream(9))
        b = ps.top_k_eigenvalues(ctx, w, ones(w.size), 4, ps.RngStream(9))
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)

    def test_fewer_positives_than_k(self):
        # 2 positive directions only: report keeps what exists
        ctx = diag_quadratic([4.0, 2.0, -1.0])
        rep = ps.top_k_eigenvalues(ctx, np.zeros(3), ones(3), 5, ps.RngStream(5))
        np.testing.assert_allclose(rep.eigenvalues, [4.0, 2.0], atol=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_roundoff_level_ritz_values_dropped(self, seed):
        # rank 3 in 12 dimensions: every Ritz value past the third is zero up
        # to roundoff, and none of them may enter the report
        ctx = diag_quadratic([3.0, 2.0, 1.0] + [0.0] * 9)
        rep = ps.top_k_eigenvalues(ctx, np.zeros(12), ones(12), 5, ps.RngStream(seed))
        np.testing.assert_allclose(rep.eigenvalues, [3.0, 2.0, 1.0], rtol=1e-12)


class TestInverseVolume:
    def test_unit_spectrum(self):
        rep = EigenReport(np.array([1.0, 1.0, 1.0]), 3, (0, 0))
        assert ps.inverse_volume(rep, 3) == 0.0

    def test_log_identity(self):
        rep = EigenReport(np.array([math.e**2, math.e]), 2, (0, 0))
        assert ps.inverse_volume(rep, 2) == pytest.approx(3.0, abs=1e-12)

    def test_arithmetic(self):
        rep = EigenReport(np.array([2.0, 4.0, 8.0]), 3, (0, 0))
        assert ps.inverse_volume(rep, 3) == pytest.approx(math.log(64.0), abs=1e-12)

    def test_short_report_flagged(self):
        rep = EigenReport(np.array([2.0]), 3, (0, 0))
        with pytest.warns(UserWarning):
            value = ps.inverse_volume(rep, 3)
        assert value == pytest.approx(math.log(2.0))

    @given(st.floats(0.01, 100.0), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_appended_eigenvalue(self, extra, k):
        gen = np.random.default_rng(k)
        vals = np.sort(gen.uniform(0.5, 5.0, size=k))[::-1]
        base = ps.inverse_volume(EigenReport(vals, k, (0, 0)), k)
        appended = np.sort(np.append(vals, extra))[::-1]
        grown = ps.inverse_volume(EigenReport(appended, k, (0, 0)), k + 1)
        if extra > 1.0:
            assert grown > base
        elif extra < 1.0:
            assert grown < base


class TestBasinCutoff:
    def test_definition(self):
        assert ps.basin_cutoff(0.5, 0.2) == 1.0

    def test_zero_case(self):
        assert ps.basin_cutoff(0.0, 0.0) == 0.0

    def test_symmetric(self):
        assert ps.basin_cutoff(0.3, 0.7) == ps.basin_cutoff(0.7, 0.3)


class TestBasinRadius:
    def test_parabola_crossing(self):
        # loss = w^2: crosses 1.0 at r = 1
        at = diag_quadratic([2.0]).at(ones(1))
        r = ps.basin_radius(at, np.zeros(1), np.array([1.0]), 1.0, at.loss(np.zeros(1)))
        assert abs(r - 1.0) <= 1e-6

    def test_shallow_parabola(self):
        # loss = w^2/4: crosses 1.0 at r = 2
        at = diag_quadratic([0.5]).at(ones(1))
        r = ps.basin_radius(at, np.zeros(1), np.array([1.0]), 1.0, at.loss(np.zeros(1)))
        assert abs(r - 2.0) <= 1e-6

    def test_flat_loss_censored(self):
        r = ps.basin_radius(
            FlatContext(0.0).at(ones(2)),
            np.zeros(2),
            np.array([1.0, 0.0]),
            1.0,
            0.0,
        )
        assert r == math.inf

    def test_center_outside_rejected(self):
        at = diag_quadratic([2.0]).at(ones(1))
        with pytest.raises(ValueError):
            ps.basin_radius(at, np.array([5.0]), np.array([1.0]), 1.0, at.loss(np.array([5.0])))

    def test_given_center_loss(self):
        # the passed center loss is the only center evaluation, gives the
        # evaluated center's radius, and is still checked against the cutoff
        ctx = CountingContext(diag_quadratic([2.0, 0.5]))
        d = np.array([0.6, 0.8])
        at = ctx.at(ones(2))
        r = ps.basin_radius(at, np.zeros(2), d, 1.0, at.loss(np.zeros(2)))
        evaluated = ctx.calls
        ctx.calls = 0
        assert ps.basin_radius(ctx.at(ones(2)), np.zeros(2), d, 1.0, 0.0) == r
        assert ctx.calls == evaluated - 1
        with pytest.raises(ValueError, match="not below the cutoff"):
            ps.basin_radius(ctx.at(ones(2)), np.zeros(2), d, 1.0, 1.0)

    def test_cutoff_scaling_sqrt2(self):
        at = QuadraticContext(np.diag([1.3, 0.2])).at(ones(2))
        d = np.array([0.6, 0.8])
        r1 = ps.basin_radius(at, np.zeros(2), d, 0.5, at.loss(np.zeros(2)))
        r2 = ps.basin_radius(at, np.zeros(2), d, 1.0, at.loss(np.zeros(2)))
        assert abs(r2 - math.sqrt(2.0) * r1) <= 1e-6


def _step(crossing):
    return lambda r: 0.0 if r < crossing else 10.0


def _exp_cliff(crossing):
    # exp(40 (r - crossing)) crosses 1 at the crossing; capped below overflow
    return lambda r: math.exp(min(40.0 * (r - crossing), 700.0))


def _radius_1d(loss, cutoff=1.0):
    ctx = CountingContext(loss)
    at = ctx.at(ones(1))
    r = ps.basin_radius(at, np.zeros(1), np.array([1.0]), cutoff, at.loss(np.zeros(1)))
    return r, ctx.calls


class TestRootFinder:
    """Evaluation budget and accuracy of the bracketed Illinois search."""

    def test_anisotropic_quadratic_budget(self):
        # the quadratic of TestMcRadiusProfile.test_anisotropic_closed_form
        diag = np.array([1.0, 100.0])
        rng = ps.RngStream(1)
        for i in range(500):
            phi = ps.random_unit_direction(ones(2), rng.derive(i))
            ctx = CountingContext(diag_quadratic(diag))
            at = ctx.at(ones(2))
            r = ps.basin_radius(at, np.zeros(2), phi, 1.0, at.loss(np.zeros(2)))
            assert abs(r - math.sqrt(2.0 / float(phi @ (diag * phi)))) <= RADIUS_TOL
            assert ctx.calls <= 25

    @pytest.mark.parametrize("loss", [_step, _exp_cliff], ids=["step", "exp_cliff"])
    def test_adversarial_crossing_at_typical_radius(self, loss):
        r, calls = _radius_1d(loss(3.3))
        assert abs(r - 3.3) <= RADIUS_TOL
        assert calls <= 45

    @pytest.mark.parametrize("loss", [_step, _exp_cliff], ids=["step", "exp_cliff"])
    def test_adversarial_crossings_up_to_the_cap(self, loss):
        # bound: a fixed 60-step bisection needs at least 62 evaluations
        # (the center, one bracket point, 60 halvings)
        for crossing in np.geomspace(0.011, 99.99, 400):
            r, calls = _radius_1d(loss(float(crossing)))
            assert abs(r - crossing) <= RADIUS_TOL
            assert calls < 62

    def test_crossing_at_radius_start(self):
        # loss = w^2 reaches the cutoff exactly at the first bracket point
        r, _ = _radius_1d(lambda x: x * x, cutoff=RADIUS_START * RADIUS_START)
        assert abs(r - RADIUS_START) <= RADIUS_TOL

    def test_crossing_beyond_the_cap_is_censored(self):
        r, _ = _radius_1d(_step(100.5))
        assert r == math.inf


class TestMcRadiusProfile:
    def test_isotropic_quadratic(self):
        # loss = |w|^2/2: cutoff 1 crossed at sqrt(2) in every direction
        ctx = diag_quadratic([1.0] * 4)
        profile = ps.mc_radius_profile(
            ctx, np.zeros(4), ones(4), 50, 1.0, ps.RngStream(0)
        )
        np.testing.assert_allclose(profile.radii, math.sqrt(2.0), atol=1e-6)
        assert profile.mean_radius == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_anisotropic_closed_form(self):
        # r(phi) = sqrt(2 cutoff / (phi^T diag(1,100) phi)); also the min/max
        # radii over 500 directions differ by ~10x
        diag = np.array([1.0, 100.0])
        ctx = diag_quadratic(diag)
        rng = ps.RngStream(1)
        profile = ps.mc_radius_profile(ctx, np.zeros(2), ones(2), 500, 1.0, rng)
        for i in range(0, 500, 37):
            phi = ps.random_unit_direction(ones(2), rng.derive(i))
            expected = math.sqrt(2.0 / float(phi @ (diag * phi)))
            assert abs(profile.radii[i] - expected) <= 1e-6
        ratio = profile.radii.max() / profile.radii.min()
        assert abs(ratio - 10.0) / 10.0 < 0.05

    def test_deterministic(self):
        ctx = diag_quadratic([1.0, 2.0, 3.0])
        a = ps.mc_radius_profile(ctx, np.zeros(3), ones(3), 20, 1.0, ps.RngStream(4))
        b = ps.mc_radius_profile(ctx, np.zeros(3), ones(3), 20, 1.0, ps.RngStream(4))
        np.testing.assert_array_equal(a.radii, b.radii)

    def test_radii_keyed_by_direction_index(self):
        # direction i draws from the stream derived at i, so a shorter
        # profile is a prefix of a longer one on the same stream
        ctx = diag_quadratic([1.0, 4.0, 9.0])
        short = ps.mc_radius_profile(ctx, np.zeros(3), ones(3), 16, 1.0, ps.RngStream(5))
        long = ps.mc_radius_profile(ctx, np.zeros(3), ones(3), 32, 1.0, ps.RngStream(5))
        np.testing.assert_array_equal(short.radii, long.radii[:16])

    def test_center_evaluated_once(self):
        # one center loss per profile, then only each direction's probes
        ctx = CountingContext(diag_quadratic([1.0, 4.0, 9.0]))
        rng = ps.RngStream(5)
        profile = ps.mc_radius_profile(ctx, np.zeros(3), ones(3), 8, 1.0, rng)
        probes = CountingContext(diag_quadratic([1.0, 4.0, 9.0]))
        for i in range(8):
            direction = ps.random_unit_direction(ones(3), rng.derive(i))
            radius = ps.basin_radius(probes.at(ones(3)), np.zeros(3), direction, 1.0, 0.0)
            assert radius == profile.radii[i]
        assert ctx.calls == probes.calls + 1

    def test_all_censored_rejected(self):
        with pytest.raises(DegenerateProfileError):
            ps.mc_radius_profile(
                FlatContext(0.0), np.zeros(2), ones(2), 5, 1.0, ps.RngStream(0)
            )


class TestLogVolume:
    def test_unit_disk(self):
        profile = ps.RadiusProfile(np.ones(10), 0.0)
        assert ps.log_volume(profile, 2) == pytest.approx(math.log(math.pi), abs=1e-10)

    def test_interval(self):
        profile = ps.RadiusProfile(np.full(5, 2.0), 0.0)
        assert ps.log_volume(profile, 1) == pytest.approx(math.log(4.0), abs=1e-10)

    def test_unit_ball_3d(self):
        profile = ps.RadiusProfile(np.ones(7), 0.0)
        assert ps.log_volume(profile, 3) == pytest.approx(
            math.log(4.0 * math.pi / 3.0), abs=1e-10
        )

    def test_censored_excluded(self):
        radii = np.array([1.0, math.inf, 1.0])
        profile = ps.RadiusProfile(radii, 0.0)
        assert profile.n_censored == 1
        assert ps.log_volume(profile, 2) == pytest.approx(math.log(math.pi), abs=1e-10)

    def test_no_overflow_in_high_dimension(self):
        profile = ps.RadiusProfile(np.full(4, 3.0), 0.0)
        value = ps.log_volume(profile, 2000)  # 3^2000 would overflow naively
        assert math.isfinite(value)


class TestInterpolation:
    def test_degenerate_segment(self):
        ctx = diag_quadratic([1.0, 1.0])
        p = np.array([0.3, -0.4])
        curve = ps.interpolate_losses(ctx, p, p, n_points=11)
        np.testing.assert_allclose(curve.losses, curve.losses[0], rtol=1e-12)

    def test_endpoint_losses_bit_equal(self):
        ctx, w = random_net_ctx(33)
        q = w + 0.1
        curve = ps.interpolate_losses(ctx, w, q, n_points=21)
        full = ctx.at(ones(w.size))
        assert curve.losses[0] == full.loss(w)
        assert curve.losses[-1] == full.loss(q)

    def test_convex_along_quadratic(self):
        gen = np.random.default_rng(0)
        H = gen.normal(size=(4, 4))
        ctx = QuadraticContext(H @ H.T + 0.1 * np.eye(4))
        curve = ps.interpolate_losses(
            ctx, gen.normal(size=4), gen.normal(size=4), n_points=101
        )
        second_diff = np.diff(curve.losses, 2)
        assert np.all(second_diff >= -1e-10)

    def test_point_count(self):
        ctx = diag_quadratic([1.0])
        curve = ps.interpolate_losses(ctx, np.zeros(1), np.ones(1), 501)
        assert curve.alphas.size == 501
        assert curve.losses.size == 501


class TestBarrierHeight:
    def test_tent(self):
        curve = ps.InterpolationCurve(
            np.array([0.0, 0.5, 1.0]), np.array([1.0, 5.0, 1.0])
        )
        barrier = barrier_height(curve)
        assert barrier.height == 4.0
        assert barrier.alpha == 0.5

    def test_monotone_decreasing_nonpositive(self):
        curve = ps.InterpolationCurve(
            np.linspace(0, 1, 5), np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        )
        assert barrier_height(curve).height <= 0.0

    def test_constant(self):
        curve = ps.InterpolationCurve(np.linspace(0, 1, 4), np.full(4, 2.0))
        assert barrier_height(curve).height == 0.0


class TestSurfaceGrid:
    def _ctx(self):
        return diag_quadratic([1.0, 2.0, 3.0])

    def _unit_anchors(self):
        return {
            "origin": np.zeros(3),
            "x": np.array([1.0, 0.0, 0.0]),
            "y": np.array([0.0, 1.0, 0.0]),
        }

    def test_cell_count(self):
        grid = ps.surface_grid(self._ctx(), self._unit_anchors(), 6, 7, 0.3, 10.0)
        assert grid.losses.shape == (6, 7)

    def test_in_plane_reconstruction(self):
        gen = np.random.default_rng(1)
        anchors = {name: gen.normal(size=3) for name in "abc"}
        grid = ps.surface_grid(self._ctx(), anchors, 4, 4, 0.3, 10.0)
        for point, anchor in zip(grid.points, anchors.values()):
            rebuilt = grid.origin + point.x * grid.u + point.y * grid.v
            np.testing.assert_allclose(rebuilt, anchor, atol=1e-10)
            assert point.projection_residual <= 1e-10

    def test_off_plane_residual(self):
        points = {**self._unit_anchors(), "off": np.array([0.2, 0.3, 5.0])}
        grid = ps.surface_grid(self._ctx(), points, 4, 4, 0.3, 10.0)
        assert [p.name for p in grid.points] == ["origin", "x", "y", "off"]
        assert grid.points[-1].projection_residual == pytest.approx(5.0, abs=1e-12)

    def test_fewer_than_three_anchors_rejected(self):
        with pytest.raises(ValueError, match="three anchors"):
            ps.surface_grid(self._ctx(), {"a": np.zeros(3), "b": np.ones(3)}, 4, 4, 0.3, 10.0)

    def test_poi_losses_are_their_own(self):
        gen = np.random.default_rng(2)
        anchors = {name: gen.normal(size=3) for name in "abc"}
        ctx = self._ctx()
        grid = ps.surface_grid(ctx, anchors, 4, 4, 0.3, 10.0)
        for point, anchor in zip(grid.points, anchors.values()):
            assert point.loss == ctx.loss(anchor, ones(3))

    def test_clipping_flags(self):
        ctx = diag_quadratic([200.0, 200.0, 200.0])
        grid = ps.surface_grid(ctx, self._unit_anchors(), 5, 5, 0.3, 10.0)
        assert grid.clipped.any()
        assert np.all(grid.losses[grid.clipped] > 10.0)


class TestGeometry:
    def test_identity(self):
        p = np.array([1.0, 2.0])
        e, c = ps.geometry(p, p)
        assert e == 0.0
        assert c == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        e, c = ps.geometry(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert e == pytest.approx(math.sqrt(2.0))
        assert c == 0.0

    def test_antiparallel(self):
        e, c = ps.geometry(np.array([1.0, 0.0]), np.array([-2.0, 0.0]))
        assert (e, c) == (3.0, -1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(UndefinedCosineError):
            ps.geometry(np.zeros(2), np.ones(2))

    @given(st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, seed):
        gen = np.random.default_rng(seed)
        a, b, c = gen.normal(size=(3, 6))
        ab = ps.geometry(a, b)[0]
        bc = ps.geometry(b, c)[0]
        ac = ps.geometry(a, c)[0]
        assert ac <= ab + bc + 1e-12


class TestTaylorPruneEstimate:
    def test_exact_on_diagonal_quadratic(self):
        gen = np.random.default_rng(0)
        diag = gen.uniform(0.5, 3.0, size=10)
        ctx = diag_quadratic(diag)
        w = gen.normal(size=10)
        m_before = ones(10)
        m_after = m_before.copy()
        m_after[[2, 7]] = False
        predicted, actual = ps.taylor_prune_estimate(
            ctx, w, m_before, m_after, probes=1, rng=ps.RngStream(0),
            use_exact_diagonal=True,
        )
        assert abs(predicted - actual) <= 1e-8

    def test_hutchinson_close_on_diagonal_quadratic(self):
        gen = np.random.default_rng(1)
        diag = gen.uniform(0.5, 3.0, size=8)
        ctx = diag_quadratic(diag)
        w = gen.normal(size=8)
        m_after = ones(8)
        m_after[3] = False
        predicted, actual = ps.taylor_prune_estimate(
            ctx, w, ones(8), m_after, probes=200, rng=ps.RngStream(1)
        )
        # Hutchinson's diagonal is exact in expectation; on a DIAGONAL
        # quadratic each probe's z_i * (H z)_i = H_ii exactly
        assert abs(predicted - actual) <= 1e-3

    def test_hutchinson_is_the_mean_of_its_samples(self):
        # bit for bit, signed zeros of the masked coordinates included
        ctx, w = random_net_ctx(5)
        mask = ps.dense_mask(ctx.spec)
        mask[[3, 11]] = False
        rng = ps.RngStream(4)
        hessian = ctx.at(mask).hvp_at(w)
        samples = []
        for j in range(9):
            z = (rng.derive(j).generator().integers(0, 2, size=mask.size) * 2.0 - 1.0) * mask
            samples.append(z * hessian(z))
        diag = hutchinson_diagonal(ctx, w, mask, 9, rng)
        assert diag.tobytes() == np.mean(samples, axis=0).tobytes()

    def test_hutchinson_holds_no_probe_samples(self):
        # the peak grows by less than two parameter vectors from 10 to 50
        # probes on a net with 128-wide hidden layers at 300 rows
        spec = ps.NetworkSpec((2, 128, 128, 3))
        ctx = spirals_context(spec, 100, 3, 0.15, ps.RngStream(1))
        w = ps.init_params(spec, ps.RngStream(2))
        peaks = []
        for probes in (10, 50):
            tracemalloc.start()
            hutchinson_diagonal(ctx, w, ps.dense_mask(spec), probes, ps.RngStream(3))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * w.nbytes

    def test_pruning_zero_coordinate_contributes_nothing(self):
        ctx = diag_quadratic([2.0, 3.0])
        w = np.array([0.0, 1.5])
        m_after = np.array([False, True])
        predicted, actual = ps.taylor_prune_estimate(
            ctx, w, ones(2), m_after, probes=1, rng=ps.RngStream(0),
            use_exact_diagonal=True,
        )
        assert predicted == 0.0
        assert actual == 0.0

    def test_exact_diagonal_helper(self):
        gen = np.random.default_rng(2)
        diag = gen.uniform(0.5, 2.0, size=5)
        ctx = diag_quadratic(diag)
        got = exact_diagonal(ctx, np.zeros(5), ones(5), np.arange(5))
        np.testing.assert_allclose(got, diag, atol=1e-12)

    def test_small_vs_large_pruning_on_trained_nets(self):
        # second-order prediction tracks reality better when the removed
        # weights are small; averaged over 3 training seeds
        errors = {"smallest": [], "largest": []}
        for seed in range(3):
            spec = ps.NetworkSpec((2, 16, 3))
            train_ds = ps.gen_spirals(60, 3, 0.15, ps.RngStream(seed, 1))
            test_ctx = spirals_context(spec, 20, 3, 0.15, ps.RngStream(seed, 2))
            ctx = ps.LossContext(spec, train_ds.features, train_ds.labels)
            hp = ps.Hyperparams(
                epochs=15, batch_size=16, lr0=0.1, momentum=0.9, weight_decay=1e-4,
                decay_epochs=(10,), decay_factor=0.1, rewind_step=0, seed=seed,
            )
            w0 = ps.init_params(spec, ps.RngStream(seed, 3))
            mask = ps.dense_mask(spec)
            w, _, _ = ps.train(ctx, test_ctx, w0, mask, hp)
            prunable = ps.prunable_coords(spec)
            active = int((mask & prunable).sum())
            count = max(1, int(0.01 * active))
            small_mask = ps.prune_by_magnitude(w, mask, count, prunable)
            large_mask = ps.prune_by_magnitude(w, mask, count, prunable, largest=True)
            for name, m_after in (("smallest", small_mask), ("largest", large_mask)):
                predicted, actual = ps.taylor_prune_estimate(
                    ctx, w, mask, m_after, probes=100, rng=ps.RngStream(seed, 4),
                )
                errors[name].append(abs(predicted - actual))
        assert np.mean(errors["smallest"]) < np.mean(errors["largest"])
