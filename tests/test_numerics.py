import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prunescope import (
    RngStream,
    lerp,
    plane_basis,
    project_to_plane,
    random_unit_direction,
    tridiag_eigenvalues,
)
from prunescope.numerics import mix_seed
from prunescope.errors import (
    DegeneratePlaneError,
    DimensionMismatchError,
    EmptySubspaceError,
    NumericalFailureError,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec(n):
    return arrays(np.float64, n, elements=finite_floats)


class TestLerp:
    def test_endpoints(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 2.0])
        assert np.array_equal(lerp(p, q, 0.0), p)
        assert np.array_equal(lerp(p, q, 1.0), q)

    def test_midpoint(self):
        assert np.array_equal(
            lerp(np.array([2.0, 2.0]), np.array([0.0, 0.0]), 0.5), [1.0, 1.0]
        )

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lerp(np.ones(2), np.ones(3), 0.5)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            lerp(np.ones(2), np.ones(2), 1.5)

    @given(
        st.integers(1, 8).flatmap(lambda n: st.tuples(vec(n), vec(n))),
        st.floats(0, 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, pq, alpha):
        p, q = pq
        lhs = lerp(p, q, alpha) + lerp(q, p, alpha)
        np.testing.assert_allclose(lhs, p + q, rtol=1e-12, atol=1e-9)


class TestPlaneBasis:
    def test_axis_aligned(self):
        u, v = plane_basis(np.zeros(2), np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-15)

    def test_translated(self):
        u, v = plane_basis(
            np.array([1.0, 1.0]), np.array([3.0, 1.0]), np.array([1.0, 5.0])
        )
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-15)

    def test_collinear_rejected(self):
        with pytest.raises(DegeneratePlaneError):
            plane_basis(np.zeros(2), np.array([0.0, 3.0]), np.array([0.0, 4.0]))

    def test_thousand_random_triples(self):
        gen = np.random.default_rng(42)
        for _ in range(1000):
            n = int(gen.integers(2, 12))
            origin, a, b = gen.normal(size=(3, n))
            try:
                u, v = plane_basis(origin, a, b)
            except DegeneratePlaneError:
                continue
            assert abs(u @ v) <= 1e-12
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


class TestProjectToPlane:
    def test_canonical_basis(self):
        x, y = project_to_plane(
            np.array([3.0, 4.0]), np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])
        )
        assert (x, y) == (3.0, 4.0)

    def test_zero_offset(self):
        o = np.array([5.0, -2.0])
        assert project_to_plane(o, o, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == (0.0, 0.0)

    def test_drops_out_of_plane(self):
        x, y = project_to_plane(
            np.ones(3),
            np.zeros(3),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
        )
        assert (x, y) == (1.0, 1.0)


class TestTridiagEigenvalues:
    def test_one_by_one(self):
        np.testing.assert_array_equal(
            tridiag_eigenvalues(np.array([2.0]), np.array([])), [2.0]
        )

    def test_diagonal(self):
        np.testing.assert_allclose(
            tridiag_eigenvalues(np.array([1.0, 1.0]), np.array([0.0])),
            [1.0, 1.0],
        )

    def test_two_by_two_closed_form(self):
        # char poly of [[0,1],[1,0]] is t^2 - 1 -> eigenvalues +-1
        vals = tridiag_eigenvalues(np.array([0.0, 0.0]), np.array([1.0]))
        np.testing.assert_allclose(vals, [1.0, -1.0], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 50])
    def test_against_dense_oracle(self, n):
        gen = np.random.default_rng(n)
        for _ in range(20):
            d = gen.normal(size=n)
            e = gen.normal(size=n - 1)
            mine = tridiag_eigenvalues(d, e)
            dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            ref = np.sort(np.linalg.eigvalsh(dense))[::-1]
            scale = max(np.max(np.abs(ref)), 1e-30)
            assert np.max(np.abs(mine - ref)) / scale < 1e-10

    def test_descending_order(self):
        gen = np.random.default_rng(5)
        vals = tridiag_eigenvalues(gen.normal(size=9), gen.normal(size=8))
        assert np.all(np.diff(vals) <= 0)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            tridiag_eigenvalues(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, bad):
        with pytest.raises(NumericalFailureError):
            tridiag_eigenvalues(np.array([bad, 1.0]), np.array([1.0]))
        with pytest.raises(NumericalFailureError):
            tridiag_eigenvalues(np.array([0.0, 1.0]), np.array([bad]))


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(7, 3).generator().normal(size=16)
        b = RngStream(7, 3).generator().normal(size=16)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, 0).generator().normal(size=16)
        b = RngStream(7, 1).generator().normal(size=16)
        assert not np.array_equal(a, b)

    def test_derive_deterministic(self):
        assert RngStream(1, 2).derive(5) == RngStream(1, 2).derive(5)
        assert RngStream(1, 2).derive(5) != RngStream(1, 2).derive(6)

    def test_splitmix_fold_frozen_values(self):
        # recorded before derive and mix_seed shared one fold; artifacts
        # depend on every one of these bits
        assert mix_seed(1, 1_001) == 4765471011617272360
        assert mix_seed(1, 3) == 17027085370592858547
        assert RngStream(1, 2).derive(5, 7).stream_id == 2719898325448770171


class TestRandomUnitDirection:
    def test_single_active_dim(self):
        d = random_unit_direction(np.array([True, False]), RngStream(1))
        assert d[1] == 0.0
        assert abs(abs(d[0]) - 1.0) < 1e-15

    def test_unit_norm(self):
        mask = np.ones(1000, dtype=bool)
        d = random_unit_direction(mask, RngStream(3))
        assert abs(np.linalg.norm(d) - 1.0) <= 1e-12

    def test_deterministic(self):
        mask = np.ones(64, dtype=bool)
        a = random_unit_direction(mask, RngStream(7, 0))
        b = random_unit_direction(mask, RngStream(7, 0))
        np.testing.assert_array_equal(a, b)

    def test_masked_coordinates_exactly_zero(self):
        gen = np.random.default_rng(0)
        for trial in range(50):
            mask = gen.random(32) < 0.5
            if not mask.any():
                mask[0] = True
            d = random_unit_direction(mask, RngStream(trial))
            assert np.all(d[~mask] == 0.0)

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptySubspaceError):
            random_unit_direction(np.zeros(4, dtype=bool), RngStream(0))
