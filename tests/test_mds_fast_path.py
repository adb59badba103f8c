"""The two routes of ``classical_mds``: certified subspace iteration and ``eigh``.

From ``_ITERATE_FROM`` nodes on, each record first tries a block subspace
iteration, run until it converges or stalls, and takes ``eigh`` only when
the iteration cannot certify its top-d eigenpairs.  Every pass of the
iteration has one shape: ``_PASS_PRODUCTS`` products with the matrix and
one thin QR.  These tests pin the iteration against an in-test ``eigh``
reference on wide scenes (both Grammians the distance path factors) and
on adversarial spectra, count the products a rejected record costs and
the QRs a wide scene's records take, check that a stack's records do not
see each other's route, and pin the small-n route bit for bit to a plain
``eigh``.
"""

import warnings

import numpy as np
import pytest

from relkin import InvalidDimensionError, SimConfig, estimate_from_distances
from relkin import estimate_with_accel, linalg, simulate_measurements
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


def symmetric_stack(g):
    stack = np.asarray(g).reshape(-1, *np.shape(g)[-2:])
    return 0.5 * (stack + np.swapaxes(stack, -1, -2))


def certified(g):
    """Whether the iteration certifies each record of ``g`` (one matrix or a stack)."""
    return _certified_top(symmetric_stack(g), D)[-1]


class CountingStack(np.ndarray):
    """A stack of square matrices that counts the products ``stack @ block`` taken with it.

    Records picked out of it, and the stack times its records' scales,
    stay counting stacks; every other ufunc result is a plain array.
    """

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        first = inputs[0]
        counting = isinstance(first, CountingStack)
        if ufunc is np.matmul and counting:
            CountingStack.products += first.shape[-1] == first.shape[-2]
        plain = [np.asarray(a) if isinstance(a, CountingStack) else a for a in inputs]
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(CountingStack) if ufunc is np.multiply and counting else result


def products_taken(g):
    """The products with ``b`` that the iteration takes on one record, and whether it certifies it."""
    CountingStack.products = 0
    found = _certified_top(symmetric_stack(g).view(CountingStack), D)
    return CountingStack.products, bool(found[-1][0])


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
        blocks = fast.coeffs.blocks
        # the distance path also factors 4 B4, the acceleration Grammian
        for g in blocks[:1] + [4.0 * b4 for b4 in blocks[4:]]:
            assert certified(g).all()
            assert_matches_eigh(g)
        with monkeypatch.context() as m:
            m.setattr(linalg, "_ITERATE_FROM", n + 1)
            slow = estimate(meas)
        for name in ("y0", "y1", "y2", "rotation"):
            assert rel_err(getattr(fast, name), getattr(slow, name)) <= 1e-12
        assert fast.warnings == slow.warnings


def assert_matches_eigh(g):
    """``classical_mds(g)`` agrees with the ``eigh`` reference to round-off."""
    res = classical_mds(g, D)
    top, points = eigh_reference(g)
    assert np.abs(res.eigenvalues - top).max() <= 1e-13 * np.abs(top).max()
    assert rel_err(res.points, points) <= 1e-12
    evals = np.linalg.eigvalsh(0.5 * (g + g.T))
    assert res.discarded == pytest.approx(np.sqrt(np.sum(evals[:-D] ** 2)), rel=1e-9)


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
#: spectra the iteration must not certify: each comes out bit for bit as ``eigh`` gives it
ADVERSARIAL = {
    "dominant-negative": spectrum_matrix(N_WIDE, [-5e3, 1e3, 5e2], seed=5),
    "near-tie": spectrum_matrix(N_WIDE, [1e3, 5e2, 5e2 * (1.0 - 1e-9)], seed=5),
    "no-gap": spectrum_matrix(N_WIDE, [], seed=5),
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


def test_moderate_gap_is_certified_after_further_passes():
    # lambda_3 / lambda_2 up to 1 / 10: one pass leaves residuals far above
    # round-off, so only the later passes bring it there
    g = spectrum_matrix(N_WIDE, [1e3, 5e2], seed=5, bulk=50.0)
    taken, accepted = products_taken(g)
    assert accepted and taken > linalg._PASS_PRODUCTS
    assert_matches_eigh(g)


#: the most products the iteration takes on one record before ``eigh``
MOST_PRODUCTS = linalg._PASS_PRODUCTS * linalg._MAX_PASSES


def qrs_taken(monkeypatch, g):
    """The thin QRs the iteration takes on one record, and whether it certifies it."""
    calls, qr = [], np.linalg.qr
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "qr", lambda a, mode="reduced": calls.append(a) or qr(a, mode))
        found = certified(g)
    return len(calls), bool(found[0])


@pytest.mark.parametrize("seed", range(3))
def test_every_pass_takes_one_qr(monkeypatch, seed):
    blocks = estimate_from_distances(wide_measurements(100, seed)).coeffs.blocks
    assert qrs_taken(monkeypatch, blocks[0]) == (1, True)
    taken, accepted = qrs_taken(monkeypatch, 4.0 * blocks[4])
    assert accepted and taken <= 4


def test_a_near_tie_costs_at_most_the_pass_cap_before_eigh():
    taken, accepted = products_taken(ADVERSARIAL["near-tie"])
    assert not accepted and taken <= MOST_PRODUCTS


def test_a_record_that_stops_contracting_leaves_after_the_second_pass():
    # a flat spectrum has no gap after lambda_2: its residuals barely shrink
    taken, accepted = products_taken(ADVERSARIAL["no-gap"])
    assert not accepted and taken == 2 * linalg._PASS_PRODUCTS


def test_a_record_that_needs_more_passes_than_the_cap_leaves_at_the_cap(monkeypatch):
    g = 4.0 * estimate_from_distances(wide_measurements(100, 0)).coeffs.blocks[4]
    assert products_taken(g) == (4 * linalg._PASS_PRODUCTS, True)
    monkeypatch.setattr(linalg, "_MAX_PASSES", 3)
    assert products_taken(g) == (3 * linalg._PASS_PRODUCTS, False)
    top, points = eigh_reference(g)
    res = classical_mds(g, D)
    assert np.array_equal(res.eigenvalues, top) and np.array_equal(res.points, points)


@pytest.mark.parametrize("n", [10, N_WIDE], ids=["eigh", "iteration"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_grammian_is_rejected_on_both_routes(n, bad):
    g = np.stack([np.eye(n)] * 3)
    g[1, 0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grammian in (g[1], g):
            with pytest.raises(InvalidDimensionError, match="the Grammian must be finite"):
                classical_mds(grammian, D)


def test_each_record_of_a_mixed_stack_takes_its_own_route():
    n = 100
    coeffs = estimate_from_distances(wide_measurements(n, 7)).coeffs
    negative = spectrum_matrix(n, [-5e3, 1e3, 5e2], seed=2)
    stack = np.stack([coeffs.blocks[0], 4.0 * coeffs.blocks[4], negative])
    # B0 stops after the second pass and 4 B4 some passes later; the
    # dominant negative eigenvalue fails the certificate
    assert certified(stack).tolist() == [True, True, False]
    together = classical_mds(stack, D)
    for i, g in enumerate(stack):
        alone = classical_mds(g, D)
        assert np.array_equal(together.points[i], alone.points)
        assert np.array_equal(together.eigenvalues[i], alone.eigenvalues)
        assert together.discarded[i] == alone.discarded
        assert together.warnings[i] == alone.warnings


def test_records_certified_in_one_pass_match_their_solo_runs():
    stack = np.stack(
        [estimate_from_distances(wide_measurements(100, s)).coeffs.blocks[0] for s in range(3)]
    )
    together = classical_mds(stack, D)
    for i, g in enumerate(stack):
        alone = classical_mds(g, D)
        assert np.array_equal(together.points[i], alone.points)
        assert np.array_equal(together.eigenvalues[i], alone.eigenvalues)
        assert together.discarded[i] == alone.discarded


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


def test_a_qr_without_named_fields_gives_the_same_factor(monkeypatch):
    """numpy before 2.0 returns a plain (q, r) tuple from ``np.linalg.qr``, without ``.Q``."""
    rng = np.random.default_rng(11)
    n = _ITERATE_FROM + 20
    y = rng.uniform(-500.0, 500.0, (3, D, n))
    g = symmetric_stack(np.swapaxes(y, -1, -2) @ y + rng.normal(0.0, 1e-3, (3, n, n)))
    want = classical_mds(g, D)
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode="reduced": tuple(qr(a, mode)))
    got = classical_mds(g, D)
    assert certified(g).any()
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.discarded, want.discarded)
