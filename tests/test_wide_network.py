"""Whole-array arithmetic of the estimators on wide networks.

The basis system is sliced out of one stacked array, the polynomial fit is
applied as one precomputed projector, and the coefficient blocks are
double-centered in one batched call.  These tests pin each against the
straightforward per-row / per-block / per-column computation, and check
end-to-end accuracy at 100 nodes.
"""

import numpy as np
import pytest

from relkin import (
    SimConfig,
    SingularDesignError,
    align_to_truth,
    build_and_solve_basis,
    center_coefficients,
    chu_decompose,
    estimate_from_distances,
    estimate_with_accel,
    recover_position_acceleration,
    simulate_measurements,
)
from relkin.distance_estimator import _J, _double_center, _fit_edm_coeffs, _known_z, _poly_lstsq
from relkin.linalg import triu_indices

from conftest import random_constant_accel_trajectory, rel_err


def measurements(n, k, sigma_d=0.01, sigma_a=0.001, seed=0):
    traj = random_constant_accel_trajectory(np.random.default_rng(seed), n=n)
    cfg = SimConfig(
        n_nodes=n,
        k_samples=k,
        sigma_d=sigma_d,
        sigma_a=sigma_a,
        seed=seed,
        accel_rotation_angle=0.5,
    )
    return traj, simulate_measurements(cfg, traj)


def splits(n, seed=0):
    """Both Lyapunov-like splits of a noisy distance-only estimate."""
    _, meas = measurements(n, 10, seed=seed)
    coeffs = _fit_edm_coeffs(meas, degree=4)
    mds0, mds2 = recover_position_acceleration(coeffs, 2)
    return chu_decompose(coeffs.blocks[1], mds0.points), chu_decompose(
        2.0 * coeffs.blocks[3], mds2.points
    )


def row_loop_system(f0, f2):
    """The basis system built one row at a time, one entry per coefficient matrix."""
    n = f0.n_nodes
    zk = _known_z(f0)
    p = f0.v.T @ f2.v
    g1 = f2.u.T @ f0.u
    g2 = f2.u.T @ _J @ f0.u
    e01 = np.zeros((2, n))
    e01[0, 1] = 1.0
    e10 = np.zeros((2, n))
    e10[1, 0] = 1.0
    mats = [g1 @ zk @ p, g2 @ zk @ p, g1 @ e01 @ p, g1 @ e10 @ p, g2 @ e01 @ p, g2 @ e10 @ p]
    rows, rhs = [], []
    for i in range(2):
        rows.append(np.array([m[i, i] for m in mats]))
        rhs.append(float(f2.z1_diag[i]))
    for i in range(2):
        for j in range(2, n):
            rows.append(np.array([m[i, j] for m in mats]))
            rhs.append(float(f2.z2[i, j - 2]))
    ci, cj, c2 = f2.offdiag_constraints[0]
    rows.append(np.array([f2.lam[ci] * m[ci, cj] + f2.lam[cj] * m[cj, ci] for m in mats]))
    rhs.append(c2)
    ci, cj, c0 = f0.offdiag_constraints[0]
    rows.append(np.array([-c0, 0.0, f0.lam[ci], f0.lam[cj], 0.0, 0.0]))
    rhs.append(0.0)
    rows.append(np.array([0.0, -c0, 0.0, 0.0, f0.lam[ci], f0.lam[cj]]))
    rhs.append(0.0)
    return np.vstack(rows), np.asarray(rhs)


@pytest.mark.parametrize("n", [4, 10, 100])
def test_basis_system_equals_row_loop(n):
    f0, f2 = splits(n)
    w, b = row_loop_system(f0, f2)
    basis = build_and_solve_basis(f0, f2)
    assert basis.w.shape == (2 * n + 1, 6)
    assert np.array_equal(basis.w, w)
    assert np.array_equal(basis.rhs, b)


def test_basis_condition_is_singular_value_ratio():
    f0, f2 = splits(10)
    basis = build_and_solve_basis(f0, f2)
    s = np.linalg.svd(basis.w, compute_uv=False)
    assert basis.condition == pytest.approx(s[0] / s[-1], rel=1e-10)


@pytest.mark.parametrize("k,columns", [(10, 4950), (500, 45)], ids=["wide-net", "long-record"])
@pytest.mark.parametrize("degree", [3, 4])
def test_poly_lstsq_matches_unscaled_lstsq(k, columns, degree):
    rng = np.random.default_rng(k + columns)
    t = np.linspace(-5.0, 5.0, k + 1)
    vals = rng.uniform(0.0, 1e6, (k + 1, columns)) + rng.standard_normal((k + 1, 1))
    coeffs, residual = _poly_lstsq(t, vals, degree)
    a = np.vander(t, degree + 1, increasing=True)
    want = np.linalg.lstsq(a, vals, rcond=None)[0]
    assert rel_err(coeffs, want) <= 1e-10
    assert rel_err(residual, a @ want - vals) <= 1e-10


def test_poly_lstsq_rejects_repeated_timestamps():
    t = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 3.0])  # 4 distinct < degree + 1
    with pytest.raises(SingularDesignError):
        _poly_lstsq(t, np.ones((6, 4950)), 4)


@pytest.mark.parametrize("n", [4, 10, 100])
def test_batched_double_centering_equals_per_block(n):
    pairs = np.random.default_rng(n).uniform(0.0, 1e6, (5, n * (n - 1) // 2))
    iu, ju = triu_indices(n, 1)
    blocks = _double_center(pairs, n)
    assert blocks.shape == (5, n, n)
    for row, got in zip(pairs, blocks):
        d = np.zeros((n, n))
        d[iu, ju] = row
        d = d + d.T
        r = d.mean(axis=1)
        g = d - (r[:, None] + r[None, :])
        g += r.mean()
        g *= -0.5
        assert np.array_equal(got, g)


@pytest.mark.parametrize(
    "estimate,y0_tol,y1_tol",
    # the wide-net output-check bounds: relative Frobenius error after alignment
    [(estimate_from_distances, 2e-5, 0.02), (estimate_with_accel, 2e-5, 0.02)],
    ids=["distance", "accel"],
)
def test_hundred_node_estimate_accuracy(estimate, y0_tol, y1_tol):
    traj, meas = measurements(100, 10)
    aligned = align_to_truth(estimate(meas), traj)
    y0, y1, _ = center_coefficients(traj).coeffs
    assert rel_err(aligned.y0, y0) <= y0_tol
    assert rel_err(aligned.y1, y1) <= y1_tol
