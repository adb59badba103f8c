"""The two routes of ``classical_mds``: certified subspace iteration and ``eigh``.

From ``_ITERATE_FROM`` nodes on, each record first tries a block subspace
iteration and takes ``eigh`` only when the iteration cannot certify its
top-d eigenpairs.  These tests pin the iteration against an in-test
``eigh`` reference on wide scenes and on adversarial spectra, check that
a stack's records do not see each other's route, and pin the small-n
route bit for bit to a plain ``eigh``.
"""

import numpy as np
import pytest

from relkin import SimConfig, estimate_from_distances, estimate_with_accel, linalg
from relkin import simulate_measurements
from relkin.linalg import _ITERATE_FROM, _certified_top, classical_mds

from conftest import random_constant_accel_trajectory, random_orthogonal, rel_err

D = 2


def eigh_reference(g, d=D):
    """Top-d eigenvalues and sign-fixed MDS factor of each Grammian, from a full ``eigh``."""
    evals, evecs = np.linalg.eigh(0.5 * (g + np.swapaxes(g, -1, -2)))
    top = evals[..., ::-1][..., :d]
    rows = np.swapaxes(evecs, -1, -2)[..., ::-1, :][..., :d, :]
    lead = np.take_along_axis(rows, np.abs(rows).argmax(axis=-1)[..., None], axis=-1)[..., 0]
    points = (np.sqrt(np.maximum(top, 0.0)) * np.copysign(1.0, lead))[..., None] * rows
    return top, points


def certified(g):
    """Whether the iteration certifies each record of ``g`` (one matrix or a stack)."""
    stack = np.asarray(g).reshape(-1, *np.shape(g)[-2:])
    found = _certified_top(0.5 * (stack + np.swapaxes(stack, -1, -2)), D)
    return np.zeros(len(stack), dtype=bool) if found is None else found[-1]


def wide_measurements(n, seed):
    traj = random_constant_accel_trajectory(np.random.default_rng(seed), n=n)
    cfg = SimConfig(
        n_nodes=n, k_samples=10, sigma_d=0.01, sigma_a=0.001, seed=seed,
        accel_rotation_angle=0.5,
    )
    return simulate_measurements(cfg, traj)


def spectrum_matrix(n, head, seed, bulk=1.0):
    """A symmetric (n, n) matrix with eigenvalues ``head`` plus a noise bulk of scale ``bulk``."""
    rng = np.random.default_rng(seed)
    spec = np.concatenate([head, bulk * rng.uniform(-1.0, 1.0, n - len(head))])
    q = random_orthogonal(rng, n)
    return (q * spec) @ q.T


def test_crossover_keeps_the_paper_shape_on_eigh():
    assert 10 < _ITERATE_FROM <= 50


@pytest.mark.parametrize("n", [50, 100, 150])
@pytest.mark.parametrize(
    "estimate", [estimate_from_distances, estimate_with_accel], ids=["distance", "accel"]
)
def test_wide_scenes_match_the_eigh_route(monkeypatch, estimate, n):
    for seed in range(3):
        meas = wide_measurements(n, seed)
        fast = estimate(meas)
        b0 = fast.coeffs.blocks[0]
        assert certified(b0).all()
        res = classical_mds(b0, D)
        top, points = eigh_reference(b0)
        assert np.abs(res.eigenvalues - top).max() <= 1e-13 * np.abs(top).max()
        assert rel_err(res.points, points) <= 1e-12
        evals = np.linalg.eigvalsh(0.5 * (b0 + b0.T))
        assert res.discarded == pytest.approx(np.sqrt(np.sum(evals[:-D] ** 2)), rel=1e-9)
        with monkeypatch.context() as m:
            m.setattr(linalg, "_ITERATE_FROM", n + 1)
            slow = estimate(meas)
        assert rel_err(fast.y0, slow.y0) <= 1e-12
        assert fast.warnings == slow.warnings


def hidden_dominant(n):
    """Four large columns spanning an invariant subspace, and a larger eigenvalue off it.

    The iteration starts from those four columns and converges at once to
    eigenvalues 20 to 17, missing the eigenvalue 100 of the spread vector u;
    only the certificate sends the record to ``eigh``.
    """
    u = np.concatenate([np.zeros(4), np.ones(n - 4)]) / np.sqrt(n - 4)
    head = np.concatenate([[20.0, 19.0, 18.0, 17.0], np.zeros(n - 4)])
    return np.diag(head) + 100.0 * np.outer(u, u)


N_WIDE = _ITERATE_FROM + 20
ADVERSARIAL = {
    "dominant-negative": spectrum_matrix(N_WIDE, [-5e3, 1e3, 5e2], seed=5),
    "near-tie": spectrum_matrix(N_WIDE, [1e3, 5e2, 5e2 * (1.0 - 1e-9)], seed=5),
    "moderate-gap": spectrum_matrix(N_WIDE, [1e3, 5e2], seed=5),
    "hidden-dominant": hidden_dominant(N_WIDE),
    "rank-below-d": spectrum_matrix(N_WIDE, [1e3], seed=5, bulk=0.0),
    "tiny-lambda-d": spectrum_matrix(N_WIDE, [1e3, 1e-11], seed=5, bulk=0.0),
    "zero": np.zeros((N_WIDE, N_WIDE)),
}


@pytest.mark.parametrize("case", ADVERSARIAL, ids=list(ADVERSARIAL))
def test_adversarial_spectra_match_the_eigh_route(monkeypatch, case):
    g = ADVERSARIAL[case]
    res = classical_mds(g, D)
    with monkeypatch.context() as m:
        m.setattr(linalg, "_ITERATE_FROM", N_WIDE + 1)
        slow = classical_mds(g, D)
    top, points = eigh_reference(g)
    assert np.array_equal(res.eigenvalues, top) and np.array_equal(slow.eigenvalues, top)
    assert np.array_equal(res.points, points) and np.array_equal(slow.points, points)
    assert res.discarded == slow.discarded
    assert res.warnings == slow.warnings
    assert bool(res.warnings) == (case in ("rank-below-d", "tiny-lambda-d", "zero"))


def test_each_record_of_a_mixed_stack_takes_its_own_route():
    n = 100
    coeffs = estimate_from_distances(wide_measurements(n, 7)).coeffs
    negative = spectrum_matrix(n, [-5e3, 1e3, 5e2], seed=2)
    stack = np.stack([coeffs.blocks[0], 4.0 * coeffs.blocks[4], negative])
    assert certified(stack).tolist() == [True, False, False]
    together = classical_mds(stack, D)
    for i, g in enumerate(stack):
        alone = classical_mds(g, D)
        assert np.array_equal(together.points[i], alone.points)
        assert np.array_equal(together.eigenvalues[i], alone.eigenvalues)
        assert together.discarded[i] == alone.discarded
        assert together.warnings[i] == alone.warnings


@pytest.mark.parametrize("records", [None, 128], ids=["single", "stack"])
def test_small_networks_stay_bit_identical_to_eigh(records):
    rng = np.random.default_rng(11)
    shape = (10, 10) if records is None else (records, 10, 10)
    a = rng.uniform(-1e3, 1e3, shape[:-2] + (2, 10))
    g = np.swapaxes(a, -1, -2) @ a + rng.normal(0.0, 1.0, shape)
    res = classical_mds(g, D)
    top, points = eigh_reference(g)
    assert np.array_equal(res.eigenvalues, top)
    assert np.array_equal(res.points, points)


def test_full_rank_embedding_at_wide_n_discards_nothing():
    n = _ITERATE_FROM
    g = spectrum_matrix(n, np.arange(n, 0.0, -1.0), seed=3, bulk=0.0)
    res = classical_mds(g, n)
    assert res.discarded == 0.0
    assert res.kept_over_discarded == np.inf
