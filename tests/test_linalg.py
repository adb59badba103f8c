"""Linear-algebra kernels: small exact cases plus randomized property sweeps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relkin import (
    DegenerateGeometryWarning,
    InvalidDimensionError,
    benchmark_trajectory,
    centering_matrix,
    classical_mds,
    edm_from_points,
    gram_from_edm,
    orthogonal_procrustes,
    unvech,
    vech,
)

from relkin.linalg import _norm, _norm_discarding, pairs_from_points

from conftest import random_orthogonal, rel_err


class TestCenteringMatrix:
    def test_single_point(self):
        assert_allclose(centering_matrix(1), [[0.0]])

    def test_two_points(self):
        assert_allclose(centering_matrix(2), [[0.5, -0.5], [-0.5, 0.5]])

    def test_ten_points_entries(self):
        c = centering_matrix(10)
        assert_allclose(np.diag(c), np.full(10, 0.9))
        off = c[~np.eye(10, dtype=bool)]
        assert_allclose(off, np.full(90, -0.1))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 25])
    def test_idempotent_and_annihilates_ones(self, n):
        c = centering_matrix(n)
        assert_allclose(c @ c, c, atol=1e-12)
        assert_allclose(c @ np.ones(n), np.zeros(n), atol=1e-12)
        assert_allclose(c, c.T, atol=0)

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidDimensionError):
            centering_matrix(0)


class TestVech:
    def test_two_by_two(self):
        m = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert_allclose(vech(m), [1.0, 2.0, 3.0])

    def test_identity_three(self):
        assert_allclose(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])

    def test_column_major_order(self):
        m = np.array([[11.0, 21, 31], [21, 22, 32], [31, 32, 33]])
        assert_allclose(vech(m), [11, 21, 31, 22, 32, 33])

    def test_non_square_rejected(self):
        with pytest.raises(InvalidDimensionError):
            vech(np.zeros((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            vech(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("scale", [1.0, 2.0**-40], ids=["unit", "tiny"])
    def test_asymmetry_is_judged_relative_to_the_largest_entry(self, scale):
        # off-diagonals that differ threefold are not round-off in any unit
        with pytest.raises(InvalidDimensionError, match="symmetric"):
            vech(scale * np.array([[2.0, 1.0], [3.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rejected(self, bad):
        # the suite turns a numpy RuntimeWarning into an error, so inf must not reach m - m.T
        with pytest.raises(InvalidDimensionError, match="finite"):
            vech(np.array([[bad, 1.0], [5.0, 0.0]]))

    def test_zero_matrix_accepted(self):
        assert np.array_equal(vech(np.zeros((3, 3))), np.zeros(6))

    def test_roundtrip_exact(self, rng):
        a = rng.standard_normal((10, 10))
        m = a + a.T
        assert vech(m).size == 55
        assert np.array_equal(unvech(vech(m)), m)

    def test_roundtrip_seven(self, rng):
        a = rng.standard_normal((7, 7))
        m = a + a.T
        assert np.array_equal(unvech(vech(m)), m)


class TestUnvech:
    def test_identity_two(self):
        assert_allclose(unvech([1.0, 0.0, 1.0]), np.eye(2))

    def test_generic_two(self):
        assert_allclose(unvech([1.0, 2.0, 3.0]), [[1.0, 2.0], [2.0, 3.0]])

    @pytest.mark.parametrize("bad", [2, 4, 5, 7])
    def test_non_triangular_length_rejected(self, bad):
        with pytest.raises(InvalidDimensionError):
            unvech(np.zeros(bad))

    def test_output_exactly_symmetric(self, rng):
        m = unvech(rng.standard_normal(55))
        assert np.array_equal(m, m.T)


class TestEdmFromPoints:
    @pytest.mark.parametrize("function", [edm_from_points, pairs_from_points])
    def test_a_vector_is_rejected(self, function):
        with pytest.raises(InvalidDimensionError, match=r"needs a \(\.\.\., dim, n\) array"):
            function(np.arange(4.0))

    def test_three_four_five_triangle(self):
        x = np.array([[0.0, 3.0], [0.0, 4.0]])
        assert_allclose(edm_from_points(x), [[0.0, 25.0], [25.0, 0.0]])

    def test_single_node(self):
        assert_allclose(edm_from_points(np.array([[1.0], [2.0]])), [[0.0]])

    def test_benchmark_scenario_entry(self):
        x = benchmark_trajectory().coeffs[0]
        expected = (-244.0 - 385.0) ** 2 + (-588.0 + 456.0) ** 2
        edm = edm_from_points(x)
        assert edm.shape == (10, 10)
        assert_allclose(edm[0, 1], expected)
        assert_allclose(edm[1, 0], expected)

    def test_translation_invariance(self, rng):
        x = rng.uniform(-100, 100, (2, 8))
        shifted = x + rng.uniform(-10, 10, (2, 1))
        assert_allclose(edm_from_points(shifted), edm_from_points(x), atol=1e-9)

    def test_quarter_turn_is_bitwise_invariant(self, rng):
        # entries of a 90-degree rotation are exact in floating point, so
        # the squared distances come out identical bit for bit
        x = rng.uniform(-100, 100, (2, 8))
        r = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(edm_from_points(r @ x), edm_from_points(x))

    def test_symmetric_zero_diagonal(self, rng):
        edm = edm_from_points(rng.standard_normal((3, 12)))
        assert np.array_equal(edm, edm.T)
        assert np.array_equal(np.diag(edm), np.zeros(12))
        assert np.all(edm >= 0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stack_equals_per_matrix_calls(self, rng, dim):
        x = rng.uniform(-1000, 1000, (2, 5, dim, 9))
        stacked = edm_from_points(x)
        assert stacked.shape == (2, 5, 9, 9)
        per_matrix = np.array([[edm_from_points(p) for p in row] for row in x])
        assert np.array_equal(stacked, per_matrix)


class TestGramFromEdm:
    def test_two_points(self):
        g = gram_from_edm(np.array([[0.0, 25.0], [25.0, 0.0]]))
        assert_allclose(g, [[6.25, -6.25], [-6.25, 6.25]])

    def test_zero_matrix(self):
        assert_allclose(gram_from_edm(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_equals_centered_gram(self):
        x = benchmark_trajectory().coeffs[0]
        cx = x @ centering_matrix(10)
        expected = cx.T @ cx
        g = gram_from_edm(edm_from_points(x))
        assert rel_err(g, expected) <= 1e-8

    def test_row_sums_zero_even_for_noisy_input(self, rng):
        edm = edm_from_points(rng.uniform(-50, 50, (2, 9)))
        noise = rng.normal(0, 1.0, edm.shape)
        noise = noise + noise.T
        np.fill_diagonal(noise, 0.0)
        g = gram_from_edm(edm + noise)
        assert_allclose(g @ np.ones(9), np.zeros(9), atol=1e-9 * np.abs(g).max())


class TestClassicalMds:
    def test_rank_one_factorization(self):
        res = classical_mds(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1)
        y = res.points
        assert y.shape == (1, 2)
        assert_allclose(np.abs(y), [[1.0, 1.0]])
        assert_allclose(y[0, 0], -y[0, 1])

    def test_kept_over_discarded_uses_every_discarded_eigenvalue(self):
        q = random_orthogonal(np.random.default_rng(3), 4)
        g = q @ np.diag([9.0, 4.0, -0.5, 0.1]) @ q.T
        res = classical_mds(g, 2)
        assert res.discarded == pytest.approx(np.sqrt(0.26))
        assert res.kept_over_discarded == pytest.approx(4.0 / np.sqrt(0.26))
        assert classical_mds(g, 3).kept_over_discarded == pytest.approx(0.1 / 0.5)
        # d = n discards nothing, but the kept lambda_4 = -0.5 is not positive
        assert classical_mds(g, 4).kept_over_discarded == 0.0

    @pytest.mark.parametrize(
        "g", [np.zeros((5, 5)), np.diag([4.0, 0.0, 0.0, 0.0])], ids=["zero", "rank-one"]
    )
    def test_degenerate_grammian_reports_zero_conditioning(self, g):
        res = classical_mds(g, 2)
        assert res.warnings
        assert res.discarded == 0.0
        assert res.kept_over_discarded == 0.0

    @pytest.mark.parametrize(
        "g", [np.diag([4.0, 1.0, 0.0, 0.0]), np.diag([4.0, 1.0])], ids=["rank-d", "d-equals-n"]
    )
    def test_nothing_discarded_is_perfectly_conditioned(self, g):
        res = classical_mds(g, 2)
        assert not res.warnings
        assert res.discarded == 0.0
        assert res.kept_over_discarded == np.inf

    def test_zero_matrix(self):
        res = classical_mds(np.zeros((5, 5)), 2)
        assert_allclose(res.points, np.zeros((2, 5)))
        assert res.warnings  # rank-deficient input is flagged, not an error

    def test_factorization_residual(self):
        x = benchmark_trajectory().coeffs[0]
        cx = x @ centering_matrix(10)
        g = cx.T @ cx
        y = classical_mds(g, 2).points
        assert np.linalg.norm(y.T @ y - g) / np.linalg.norm(g) <= 1e-9

    def test_negative_eigenvalues_clamped_with_warning(self):
        g = np.diag([4.0, -1.0, 0.0])
        res = classical_mds(g, 2)
        assert res.warnings
        assert_allclose(res.eigenvalues, [4.0, 0.0])
        assert_allclose(res.points.T @ res.points, np.diag([4.0, 0.0, 0.0]), atol=1e-12)

    def test_best_rank_d_psd_approximation(self, rng):
        # brute-force oracle: clamp the top-d eigenvalues, rebuild, compare
        a = rng.standard_normal((8, 8))
        g = a + a.T
        d = 3
        evals, evecs = np.linalg.eigh(g)
        top = evals[::-1][:d]
        vecs = evecs[:, ::-1][:, :d]
        best = (vecs * np.clip(top, 0, None)) @ vecs.T
        y = classical_mds(g, d).points
        assert np.linalg.norm(y.T @ y - best) <= 1e-9 * np.linalg.norm(best)

    def test_deterministic_output(self, rng):
        a = rng.standard_normal((6, 6))
        g = a @ a.T
        first = classical_mds(g, 2).points
        second = classical_mds(g.copy(), 2).points
        assert np.array_equal(first, second)

    def test_dimension_bounds(self):
        with pytest.raises(InvalidDimensionError):
            classical_mds(np.eye(3), 4)

    @pytest.mark.parametrize("n", [10, 60], ids=["eigh", "iteration"])
    @pytest.mark.parametrize("power", [600, -600])
    def test_power_of_two_scaled_grammians_factor_exactly(self, rng, n, power):
        # each record is divided by a power of two near its largest entry before
        # either route, so 2^600 (whose squares overflow) and 2^-600 (whose
        # squares underflow) give the unscaled result scaled, bit for bit
        x = rng.standard_normal((3, 2, n)) * np.array([1.0, 1e-3, 1e3])[:, None, None]
        noise = 1e-3 * rng.standard_normal((3, n, n))
        g = x.swapaxes(-1, -2) @ x + noise + noise.swapaxes(-1, -2)
        want, got = classical_mds(g, 2), classical_mds(np.ldexp(g, power), 2)
        assert np.array_equal(got.points, np.ldexp(want.points, power // 2))
        assert np.array_equal(got.eigenvalues, np.ldexp(want.eigenvalues, power))
        assert np.array_equal(got.discarded, np.ldexp(want.discarded, power))
        assert got.warnings == want.warnings


class TestOrthogonalProcrustes:
    def test_identity_for_equal_inputs(self, rng):
        a = rng.standard_normal((2, 7))
        r = orthogonal_procrustes(a, a)
        assert np.linalg.norm(r @ a - a) <= 1e-12 * np.linalg.norm(a)
        assert_allclose(r.T @ r, np.eye(2), atol=1e-10)

    def test_recovers_known_rotation(self, rng):
        a = rng.standard_normal((3, 10))
        r0 = random_orthogonal(rng, 3)
        r = orthogonal_procrustes(a, r0 @ a)
        assert np.linalg.norm(r - r0) <= 1e-9

    def test_returns_reflection_when_needed(self, rng):
        a = rng.standard_normal((2, 8))
        flip = np.diag([1.0, -1.0])
        r = orthogonal_procrustes(a, flip @ a)
        assert_allclose(r, flip, atol=1e-9)
        assert np.linalg.det(r) < 0

    def test_beats_random_orthogonal_matrices(self, rng):
        a = rng.standard_normal((2, 9))
        b = rng.standard_normal((2, 9))
        r = orthogonal_procrustes(a, b)
        best = np.linalg.norm(r @ a - b)
        for _ in range(1000):
            cand = random_orthogonal(rng, 2)
            assert best <= np.linalg.norm(cand @ a - b) + 1e-12

    def test_rank_deficient_warns_but_returns_orthogonal(self):
        a = np.zeros((2, 5))
        b = np.zeros((2, 5))
        with pytest.warns(DegenerateGeometryWarning):
            r = orthogonal_procrustes(a, b)
        assert_allclose(r.T @ r, np.eye(2), atol=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidDimensionError):
            orthogonal_procrustes(np.zeros((2, 3)), np.zeros((2, 4)))


class TestNormDiscarding:
    def test_squares_in_place_and_matches_norm(self, rng):
        x = rng.standard_normal((3, 41, 45))
        want = _norm(x)
        got = _norm_discarding(x)
        assert np.array_equal(got, want)
        # the argument holds its squares afterwards
        assert (x >= 0.0).all()

    def test_records_far_apart_in_scale_match_norm(self, rng):
        # the estimators hand both norms unit-scale records; each record's norm
        # is its own, however far the others lie from it
        x = rng.standard_normal((3, 5, 6))
        x[1] *= 1e150
        x[2] *= 1e-150
        want, first = _norm(x), _norm(x[0])
        got = _norm_discarding(x)
        assert np.array_equal(got, want)
        assert np.array_equal(got[0], first)
