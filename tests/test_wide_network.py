"""Whole-array arithmetic of the estimators on wide networks.

The Lyapunov-like splits and the basis system work in node coordinates
with the thin SVD, the basis system is sliced out of one stacked array,
the polynomial fit is applied as one precomputed projector, and the
coefficient blocks are double-centered in one batched call.  These tests
pin each against the full-SVD-frame / per-row / per-block / per-column
computation, check end-to-end accuracy at 100 nodes, and count how
many record-sized arrays the simulator and the fit hold at once.
"""

import tracemalloc

import numpy as np
import pytest

import relkin.trajectory as trajectory
from relkin import (
    MeasurementSet,
    SimConfig,
    SingularDesignError,
    align_to_truth,
    build_and_solve_basis,
    center_coefficients,
    centering_matrix,
    chu_decompose,
    estimate_from_distances,
    estimate_with_accel,
    recover_position_acceleration,
    recover_velocity,
    simulate_measurements,
)
from relkin.accel_estimator import fit_with_accel
from relkin.distance_estimator import (
    _J,
    _double_center,
    _fit_edm_coeffs,
    _poly_lstsq,
    fit_from_distances,
)
from relkin.linalg import pairs_from_points, triu_indices

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


def split_inputs(n, seed=0):
    """(B, A) of both Lyapunov-like equations of a noisy distance-only estimate."""
    _, meas = measurements(n, 10, seed=seed)
    coeffs = _fit_edm_coeffs(meas, degree=4)
    mds0, mds2 = recover_position_acceleration(coeffs, 2)
    return (coeffs.blocks[1], mds0.points), (2.0 * coeffs.blocks[3], mds2.points)


def splits(n, seed=0):
    """Both Lyapunov-like splits of a noisy distance-only estimate."""
    return tuple(chu_decompose(b, a) for b, a in split_inputs(n, seed))


def full_frame_split(bhat, yhat):
    """The split in the full n-by-n SVD frame: Z = u^T M V, bbar = V^T B V."""
    u, lam, vt = np.linalg.svd(yhat, full_matrices=True)
    v = vt.T
    bbar = v.T @ bhat @ v
    bbar = 0.5 * (bbar + bbar.T)
    return {
        "u": u, "v": v, "lam": lam, "z1_diag": np.diag(bbar)[:2] / (2.0 * lam),
        "z2": bbar[:2, 2:] / lam[:, None], "c": bbar[0, 1],
        "residual": float(np.linalg.norm(bbar[2:, 2:])),
    }


def full_frame_z(s, u):
    """Z of a full-frame split with free entries ``u``."""
    z = np.zeros((2, s["v"].shape[0]))
    z[[0, 1], [0, 1]] = s["z1_diag"]
    z[:, 2:] = s["z2"]
    z[0, 1], z[1, 0] = u
    return z


def along_line(lam, c):
    """The line lam[0] u1 + lam[1] u2 = c as its point nearest the origin and a step along it.

    The step is (lam[1], -lam[0]) / lam[0]: the basis solve's s counts these.
    """
    return c * lam / (lam @ lam), np.array([lam[1], -lam[0]]) / lam[0]


def full_frame_basis(s0, s2):
    """The 2n - 1 rows of the basis system in the full SVD frames, solved.

    The free entries of the first split run along its line as
    u = nearest + s * step, so the basis is (h1, h2, h1 s, h2 s); the
    constraint row of the second split is divided by its lam[0].
    """
    p = s0["v"].T @ s2["v"]
    g1 = s2["u"].T @ s0["u"]
    g2 = s2["u"].T @ _J @ s0["u"]
    nearest, step = along_line(s0["lam"], s0["c"])
    z_near = full_frame_z(s0, nearest)
    z_step = full_frame_z(s0, nearest + step) - z_near
    m = np.stack([g1 @ z_near @ p, g2 @ z_near @ p, g1 @ z_step @ p, g2 @ z_step @ p])
    lam2 = s2["lam"]
    w = np.vstack(
        [
            m[:, [0, 1], [0, 1]].T,  # leading-block diagonal
            m[:, :, 2:].reshape(4, -1).T,  # trailing block, row 0 then row 1
            m[:, 0, 1] + (lam2[1] / lam2[0]) * m[:, 1, 0],
        ]
    )
    b = np.concatenate([s2["z1_diag"], s2["z2"].ravel(), [s2["c"] / lam2[0]]])
    phi, _, _, sv = np.linalg.lstsq(w, b, rcond=None)
    h = phi[:2] / np.hypot(phi[0], phi[1])
    u = nearest + (h[0] * phi[2] + h[1] * phi[3]) * step
    return {
        "w": w, "phi": phi, "h": h, "u": u, "residual": float(np.linalg.norm(w @ phi - b)),
        "condition": float(sv[0] / sv[-1]),
    }


@pytest.mark.parametrize("n", [4, 10, 100])
def test_thin_split_and_basis_match_full_frame(n):
    (b0, a0), (b2, a2) = split_inputs(n)
    f0, f2 = chu_decompose(b0, a0), chu_decompose(b2, a2)
    s0, s2 = full_frame_split(b0, a0), full_frame_split(b2, a2)
    for f, s in ((f0, s0), (f2, s2)):
        assert rel_err(f.lam, s["lam"]) <= 1e-12
        assert rel_err(f.residual, s["residual"]) <= 1e-10
        assert rel_err(f.known, full_frame_z(s, (0.0, 0.0)) @ s["v"].T) <= 1e-10
    basis, ref = build_and_solve_basis(f0, f2), full_frame_basis(s0, s2)
    assert basis.w.shape == (2 * n + 3, 4) and ref["w"].shape == (2 * n - 1, 4)
    for key in ("phi", "h", "u", "residual", "condition"):
        assert rel_err(getattr(basis, key), ref[key]) <= 1e-10, key
    want = s0["u"] @ full_frame_z(s0, ref["u"]) @ s0["v"].T
    assert rel_err(recover_velocity(f0, basis.u), want) <= 1e-10


def test_split_residual_vanishes_on_consistent_input():
    # ||P B P|| from two rank-2 updates; ||B||^2 - ||vt B||^2 would cancel here
    rng = np.random.default_rng(3)
    a = rng.uniform(-1000.0, 1000.0, (2, 100))
    m = rng.uniform(-10.0, 10.0, (2, 100))
    b = a.T @ m + m.T @ a
    assert chu_decompose(b, a).residual <= 1e-12 * np.linalg.norm(b)


def row_loop_system(f0, f2):
    """The basis system built one row at a time, one entry per coefficient matrix.

    The velocity coordinates are N0 = known + (u1 vt[1]; u2 vt[0]) with
    u = nearest + s * step on the first split's line, so the coefficient
    matrices of N2 are g_j @ N0(nearest) for h_j and g_j @ (N0(nearest +
    step) - N0(nearest)) for h_j s.
    """
    n = f0.vt.shape[1]
    g1 = f2.u.T @ f0.u
    g2 = f2.u.T @ _J @ f0.u
    nearest, step = along_line(f0.lam, f0.c)

    def coords(u):
        return f0.known + np.vstack([u[0] * f0.vt[1], u[1] * f0.vt[0]])

    n_near, n_step = coords(nearest), coords(nearest + step) - coords(nearest)
    mats = [g1 @ n_near, g2 @ n_near, g1 @ n_step, g2 @ n_step]
    leads = [m @ f2.vt.T for m in mats]
    trails = [m - lead @ f2.vt for m, lead in zip(mats, leads)]
    rows, rhs = [], []
    for i in range(2):
        rows.append([lead[i, i] for lead in leads])
        rhs.append(f2.z1_diag[i])
    for i in range(2):
        for j in range(n):
            rows.append([trail[i, j] for trail in trails])
            rhs.append(f2.z2[i, j])
    rows.append([lead[0, 1] + (f2.lam[1] / f2.lam[0]) * lead[1, 0] for lead in leads])
    rhs.append(f2.c / f2.lam[0])
    return np.array(rows), np.array(rhs)


@pytest.mark.parametrize("n", [4, 10, 100])
def test_basis_system_equals_row_loop(n):
    f0, f2 = splits(n)
    w, b = row_loop_system(f0, f2)
    basis = build_and_solve_basis(f0, f2)
    assert basis.w.shape == (2 * n + 3, 4)
    # the oracle finds the line's points by its own arithmetic, so w differs by round-off
    assert np.abs(basis.w - w).max() <= 1e-13 * np.abs(w).max()
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


def traced_peak(call) -> int:
    """The most bytes held at once during ``call`` beyond what was held before it.

    numpy reports its array buffers to ``tracemalloc``, so this counts
    every temporary.  A first untraced call fills the caches (index maps,
    projector), so that only the call's own arrays are counted.
    """
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_simulator_and_fit_hold_few_record_sized_arrays():
    # a count, not a timing: how many (K+1, m) records the simulator and the
    # fit hold at once, the output included.  One coordinate's gathered
    # endpoints, the noise drawn into the record and the fit's residual freed
    # before the blocks are built keep these at 3.17 and 2.61.  Once the
    # noise-free record is cached, a simulation holds 1.09: its output and
    # the accelerometer noise.
    traj, meas = measurements(100, 10, seed=1)
    cfg = SimConfig(n_nodes=100, k_samples=10, seed=1, accel_rotation_angle=0.5)
    record = meas.pairs.nbytes

    def cold():
        trajectory._last_record = None
        simulate_measurements(cfg, traj)

    assert traced_peak(cold) <= 3.5 * record
    assert traced_peak(lambda: simulate_measurements(cfg, traj)) <= 1.5 * record
    assert traced_peak(lambda: fit_from_distances(meas)) <= 3.0 * record


@pytest.mark.parametrize("n,k,bound", [(10, 500, 2.5), (100, 10, 3.2)])
def test_accelerometer_fit_deflates_without_a_record_sized_copy(n, k, bound):
    # a count, not a timing: the quartic term is taken out of the fitted
    # coefficients, so no deflated copy of the record exists beside the
    # fit's residual and its square (2.03 and 2.47 record sizes; 3.03 and
    # 3.38 when the record was deflated sample by sample)
    _, meas = measurements(n, k, seed=1)
    assert traced_peak(lambda: fit_with_accel(meas)) <= bound * meas.pairs.nbytes


def test_long_record_fits_square_their_residual_in_place():
    # a count, not a timing: the fit squares its discarded residual in place,
    # so at n = 10, K = 500 (whose blocks are small) both fits hold about one
    # record beside their input: 1.06 and 1.07 record sizes, 2.03 with a
    # separate square of the residual
    _, meas = measurements(10, 500, seed=1)
    for fit in (fit_from_distances, fit_with_accel):
        assert traced_peak(lambda: fit(meas)) <= 1.3 * meas.pairs.nbytes


@pytest.mark.parametrize("degree,deflated", [(4, False), (3, True)], ids=["distance", "accel"])
def test_the_in_place_square_keeps_the_residual_bit_for_bit(degree, deflated):
    # the residual norm is the root of the sum of the separately squared residual
    _, meas = measurements(10, 40, seed=2)
    stack = MeasurementSet(meas.timestamps, np.stack([meas.pairs, 3.0 * meas.pairs]))
    accel = np.random.default_rng(2).normal(size=(2, 2, 10)) @ centering_matrix(10)
    accel = accel if deflated else None
    quartic = None if accel is None else 0.25 * pairs_from_points(accel)
    _, res = _poly_lstsq(stack.timestamps, stack.pairs, degree, quartic)
    got = _fit_edm_coeffs(stack, degree, accel).residual
    assert np.array_equal(got, np.sqrt(np.add.reduce(res * res, axis=(1, 2))))
