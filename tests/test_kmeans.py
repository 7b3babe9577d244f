import math

import numpy as np
import pytest

from dpem.accountant import (
    SEARCH_REL_TOL,
    PrivacyBudget,
    compose_trace,
    zcdp_calibrate_pure,
)
from dpem.data import BoundedDataset, preprocess
from dpem.dataio import synth_mog
from dpem.errors import DataError
from dpem.kmeans import (
    BLOCK,
    Clustering,
    _assign,
    _counts_and_sums,
    _nearest,
    _uniform_ball,
    dpem_kmeans,
    dplloyd,
    lloyd,
    nicv,
)
from dpem.mechanisms import COUNT_FLOOR, AccountingTrace, TraceRecord


def blobs(n=500, k=3, seed=0):
    raw, _ = synth_mog(n, 2, k, separation=8.0, seed=seed)
    return preprocess(raw)


# --- nicv ---------------------------------------------------------------------


def test_nicv_zero_when_points_at_center():
    data = BoundedDataset(np.full((5, 2), 0.3))
    assert nicv(data, np.array([[0.3, 0.3]])) == 0.0


def test_nicv_unit_case():
    data = BoundedDataset(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert nicv(data, np.array([[0.0, 0.0]])) == pytest.approx(1.0)


def test_nicv_matches_exhaustive_oracle():
    rng = np.random.default_rng(4)
    X = rng.uniform(-0.4, 0.4, size=(30, 2))
    centers = rng.uniform(-0.4, 0.4, size=(4, 2))
    oracle = 0.0
    for x in X:
        oracle += min(((x - c) ** 2).sum() for c in centers)
    oracle /= 30
    assert nicv(BoundedDataset(X), centers) == pytest.approx(oracle, abs=1e-12)


def test_nicv_invariant_under_permutations():
    rng = np.random.default_rng(9)
    X = rng.uniform(-0.3, 0.3, size=(25, 2))
    centers = rng.uniform(-0.3, 0.3, size=(3, 2))
    base = nicv(BoundedDataset(X), centers)
    assert nicv(BoundedDataset(X[::-1]), centers) == pytest.approx(base)
    assert nicv(BoundedDataset(X), centers[::-1]) == pytest.approx(base)


def test_nicv_rejects_empty_centers():
    with pytest.raises(DataError):
        nicv(BoundedDataset(np.zeros((2, 2))), np.zeros((0, 2)))


def test_nicv_rejects_centers_of_the_wrong_width_or_not_finite():
    data = BoundedDataset(np.full((4, 2), 0.1))
    for centers in (np.zeros((2, 3)), np.zeros((2, 1)),
                    np.array([[0.0, np.nan]]), np.array([[np.inf, 0.0]])):
        with pytest.raises(DataError):
            nicv(data, centers)


def nearest_cases():
    rng = np.random.default_rng(31)
    for n, k, d in ((300, 1, 2), (300, 4, 1), (200, 3, 50), (500, 5, 3)):
        yield _uniform_ball(n, d, rng), _uniform_ball(k, d, rng), False
    # exact ties: a duplicated center that some rows sit on, and rows
    # midway between two centers on a line
    X, centers = _uniform_ball(400, 3, rng), _uniform_ball(4, 3, rng)
    centers[2] = centers[0]
    X[:40] = centers[0]
    yield X, centers, True
    yield (np.linspace(-1.0, 1.0, 41)[:, None], np.array([[0.5], [-0.5], [0.5]]),
           True)
    # row counts at the block edges, in both memory layouts
    for n, k, d, order in ((BLOCK - 1, 3, 2, "C"), (BLOCK, 2, 3, "F"),
                           (BLOCK + 1, 4, 1, "C"), (2 * BLOCK + 3, 3, 2, "F"),
                           (BLOCK + 1, 5, 3, "F"), (500, 3, 4, "F")):
        X = np.asarray(_uniform_ball(n, d, rng), order=order)
        yield X, _uniform_ball(k, d, rng), False
    # a tie that straddles a block edge: rows on both sides of it sit on a
    # duplicated center
    X, centers = _uniform_ball(2 * BLOCK + 3, 2, rng), _uniform_ball(3, 2, rng)
    centers[2] = centers[1]
    X[BLOCK - 7:BLOCK + 7] = centers[1]
    yield np.asfortranarray(X), centers, True


def test_nearest_equals_cube_argmin_exactly():
    # reference: the (N, k, d) cube of squared differences summed left to
    # right over coordinates (cumsum is sequential), then argmin / min
    for X, centers, ties in nearest_cases():
        dists = np.cumsum((X[:, None, :] - centers[None]) ** 2, axis=2)[:, :, -1]
        ref_min = dists.min(axis=1)
        assert ties == bool(((dists == ref_min[:, None]).sum(axis=1) > 1).any())
        labels, min_sq = _nearest(X, centers)
        assert np.array_equal(labels, dists.argmin(axis=1))
        assert np.array_equal(min_sq, ref_min)
        assert np.array_equal(_assign(X, centers), labels)
        assert nicv(BoundedDataset(X), centers) == ref_min.mean()


def test_counts_and_sums_equal_in_both_layouts():
    rng = np.random.default_rng(8)
    for n, k, d in ((BLOCK + 1, 4, 3), (300, 2, 5)):
        X = _uniform_ball(n, d, rng)
        labels = _assign(X, _uniform_ball(k, d, rng))
        counts, sums = _counts_and_sums(X, labels, k)
        counts_f, sums_f = _counts_and_sums(np.asfortranarray(X), labels, k)
        assert np.array_equal(counts_f, counts) and np.array_equal(sums_f, sums)


def test_counts_and_sums_match_a_per_cluster_reference():
    # reference: per-cluster sequential sums by np.add.at; counts must be
    # exact, sums may differ in the last bits (bounded relative to the sum
    # of absolute values, so a cluster whose sum cancels is not misjudged)
    rng = np.random.default_rng(12)
    for n, k, d, used in ((1, 3, 2, 1), (BLOCK - 1, 4, 3, 4), (BLOCK, 5, 1, 3),
                          (BLOCK + 1, 7, 5, 7), (2 * BLOCK + 3, 6, 2, 2),
                          (500, 4, 8, 3)):
        X = _uniform_ball(n, d, rng)
        # clusters used..k-1 stay empty
        labels = rng.integers(0, used, size=n)
        counts, sums = _counts_and_sums(X, labels, k)
        ref_counts, ref_sums, ref_abs = np.zeros(k), np.zeros((k, d)), np.zeros((k, d))
        np.add.at(ref_counts, labels, 1.0)
        np.add.at(ref_sums, labels, X)
        np.add.at(ref_abs, labels, np.abs(X))
        assert counts.shape == (k,) and sums.shape == (k, d)
        assert np.array_equal(counts, ref_counts)
        assert (counts[used:] == 0).all() and (sums[used:] == 0).all()
        assert (np.abs(sums - ref_sums) <= 1e-13 * ref_abs).all()


# --- noise-free limits -----------------------------------------------------------


def test_dplloyd_noise_free_equals_lloyd():
    # init seed chosen so no cluster goes empty: on empties lloyd keeps the
    # old center while the private variants floor the count at 1
    data = blobs()
    ref = lloyd(data, 3, 5, np.random.default_rng(0))
    noisefree, _ = dplloyd(data, 3, 5, eps=math.inf, composition="linear",
                           rng=np.random.default_rng(0))
    np.testing.assert_allclose(noisefree.centers, ref.centers, atol=1e-12)
    np.testing.assert_array_equal(noisefree.assignments, ref.assignments)


def test_dpem_kmeans_noise_free_equals_lloyd():
    data = blobs()
    ref = lloyd(data, 3, 5, np.random.default_rng(5))
    noisefree, _ = dpem_kmeans(data, 3, 5, PrivacyBudget(1.0, 1e-4),
                               rng=np.random.default_rng(5), eps_i=math.inf)
    np.testing.assert_allclose(noisefree.centers, ref.centers, atol=1e-12)


def test_lloyd_empty_clusters_keep_their_centers():
    # every row at one point: the nearest initial center takes them all and
    # moves there, the other two clusters stay empty and do not move
    point = np.array([0.2, -0.1])
    data = BoundedDataset(np.tile(point, (50, 1)))
    init = _uniform_ball(3, 2, np.random.default_rng(3))
    nearest = int(((init - point) ** 2).sum(axis=1).argmin())
    out = lloyd(data, 3, 4, np.random.default_rng(3))
    empty = [c for c in range(3) if c != nearest]
    np.testing.assert_array_equal(out.centers[empty], init[empty])
    np.testing.assert_allclose(out.centers[nearest], point, rtol=1e-12)
    assert (out.assignments == nearest).all()


def test_noise_free_step_equals_floored_count_cluster_means():
    # the tier-1 twin of perfbench's check_lloyd_step, at more than two
    # blocks of rows: one noise-free step moves each centre to the mean of
    # the rows its previous centres label, the count floored at COUNT_FLOOR
    # (lloyd instead keeps an empty cluster's centre)
    raw, _ = synth_mog(2 * BLOCK + 500, 2, 4, separation=8.0, seed=6)
    data = preprocess(raw)
    assert data.n > 2 * BLOCK
    X, k, iterations = data.rows, 5, 4
    budget = PrivacyBudget(1.0, 1e-4)
    fits = {"lloyd": lambda j: lloyd(data, k, j, np.random.default_rng(3)),
            "dplloyd": lambda j: dplloyd(data, k, j, 1.0, rng=np.random.default_rng(3),
                                         eps_i=math.inf)[0],
            "dpem_kmeans": lambda j: dpem_kmeans(data, k, j, budget,
                                                 np.random.default_rng(3),
                                                 eps_i=math.inf)[0]}
    for name, fit in fits.items():
        before, after = fit(iterations - 1).centers, fit(iterations).centers
        labels = ((X[:, None, :] - before[None]) ** 2).sum(axis=2).argmin(axis=1)
        for c in range(k):
            members = X[labels == c]
            if name == "lloyd" and len(members) == 0:
                want = before[c]
            else:
                want = members.sum(axis=0) / max(len(members), COUNT_FLOOR)
            assert np.abs(after[c] - want).max() <= 1e-12, (name, c)


def test_lloyd_monotone_nicv():
    data = blobs(n=600, seed=2)
    rng = np.random.default_rng(0)
    prev = None
    for iters in range(1, 8):
        cl = lloyd(data, 3, iters, np.random.default_rng(0))
        val = nicv(data, cl.centers)
        if prev is not None:
            assert val <= prev + 1e-12
        prev = val


# --- budget handling --------------------------------------------------------------


def test_dplloyd_linear_scale_single_iteration():
    data = blobs(n=200)
    _, trace = dplloyd(data, 3, 1, eps=0.5, composition="linear",
                       rng=np.random.default_rng(0))
    assert len(trace) == 1
    assert trace[0].sensitivity == pytest.approx(3.0)  # d + 1
    assert trace[0].noise_scale == pytest.approx(3.0 / 0.5)


def test_dplloyd_zcdp_calibration_beats_linear_split():
    # with a loose delta the crossover happens immediately; at delta=1e-4
    # it needs roughly 2 log(1/delta) ~ 19 iterations
    eps = 0.01
    assert zcdp_calibrate_pure(2, PrivacyBudget(eps, 0.5)) > eps / 2
    assert zcdp_calibrate_pure(25, PrivacyBudget(eps, 1e-4)) > eps / 25
    assert zcdp_calibrate_pure(5, PrivacyBudget(eps, 1e-4)) < eps / 5


@pytest.mark.parametrize("k, iterations", [(0, 3), (2, 0), (2, -1), (-1, 2)])
def test_every_variant_rejects_a_bad_k_or_iterations_up_front(k, iterations):
    data = blobs(n=100)
    for fit in (lambda: lloyd(data, k, iterations, np.random.default_rng(0)),
                lambda: dplloyd(data, k, iterations, 0.5, rng=np.random.default_rng(0)),
                lambda: dplloyd(data, k, iterations, 0.5, composition="zcdp",
                                delta=1e-4, rng=np.random.default_rng(0)),
                lambda: dpem_kmeans(data, k, iterations, PrivacyBudget(0.5, 1e-4),
                                    np.random.default_rng(0))):
        with pytest.raises(ValueError, match="k and iterations must be >= 1"):
            fit()


def test_dplloyd_rejects_nan_eps():
    data = blobs(n=200, seed=3)
    for composition, delta in (("linear", None), ("zcdp", 1e-4)):
        with pytest.raises(ValueError):
            dplloyd(data, 3, 2, float("nan"), composition=composition, delta=delta,
                    rng=np.random.default_rng(0))


def test_dplloyd_rejects_an_unknown_composition():
    with pytest.raises(ValueError, match="composition must be"):
        dplloyd(blobs(n=100), 2, 2, eps=0.5, composition="x",
                rng=np.random.default_rng(0))


def test_dplloyd_zcdp_requires_delta():
    data = blobs(n=100)
    with pytest.raises(ValueError):
        dplloyd(data, 2, 2, eps=0.5, composition="zcdp",
                rng=np.random.default_rng(0))


def test_dpem_kmeans_trace_count():
    data = blobs(n=300)
    _, trace = dpem_kmeans(data, 4, 3, PrivacyBudget(0.5, 1e-4),
                           rng=np.random.default_rng(1))
    assert len(trace) == 3 * (4 + 1)
    labels = [r.label for r in trace[:5]]
    assert labels == ["counts", "centroid", "centroid", "centroid", "centroid"]


def test_dpem_kmeans_flags_floored_counts():
    # absurdly small budget: counts get swamped, floors must trigger
    data = blobs(n=100)
    flagged = False
    for seed in range(5):
        _, trace = dpem_kmeans(data, 3, 3, PrivacyBudget(0.001, 1e-4),
                               rng=np.random.default_rng(seed))
        if trace.flagged():
            flagged = True
            break
    assert flagged


def test_clustering_validates_labels():
    with pytest.raises(ValueError):
        Clustering(np.zeros((2, 2)), np.array([0, 2]))
    with pytest.raises(ValueError, match="k x d"):
        Clustering(np.zeros(2), np.array([0, 1]))
    with pytest.raises(ValueError, match="k x d"):
        Clustering(np.zeros((2, 2)), np.zeros((2, 1), dtype=int))


def test_output_assignments_are_nearest_center():
    data = blobs(n=400, seed=5)
    cl, _ = dpem_kmeans(data, 3, 4, PrivacyBudget(0.5, 1e-4),
                        rng=np.random.default_rng(2))
    dists = ((data.rows[:, None, :] - cl.centers[None]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(cl.assignments, dists.argmin(axis=1))


def test_every_variant_trace_recomposes_within_budget():
    data = blobs(n=400, seed=3)
    eps, delta = 0.4, 1e-4
    _, trace = dplloyd(data, 3, 6, eps, composition="linear",
                       rng=np.random.default_rng(0))
    assert compose_trace(trace, "linear", delta).epsilon <= eps + 1e-9
    _, trace = dplloyd(data, 3, 6, eps, composition="zcdp", delta=delta,
                       rng=np.random.default_rng(0))
    assert compose_trace(trace, "zcdp", delta).epsilon <= eps + 1e-9
    _, trace = dpem_kmeans(data, 3, 6, PrivacyBudget(eps, delta),
                           rng=np.random.default_rng(0))
    assert compose_trace(trace, "zcdp", delta).epsilon <= eps + 1e-9


# --- add/remove neighbours and the parallel centroid charge ----------------------


def test_add_remove_neighbor_moves_one_cluster():
    # labels come from public centres, so one added unit-ball row changes
    # the count vector by 1 in L1 and exactly one cluster's coordinate sums,
    # by at most sqrt(d) in L1: the facts behind the parallel centroid charge
    rng = np.random.default_rng(2016)
    for trial in range(500):
        n = int(rng.integers(1, 51))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        centers = _uniform_ball(k, d, rng)
        X = _uniform_ball(n, d, rng)
        Xp = np.vstack([X, _uniform_ball(1, d, rng)])
        counts, sums = _counts_and_sums(X, _assign(X, centers), k)
        counts_p, sums_p = _counts_and_sums(Xp, _assign(Xp, centers), k)
        assert np.abs(counts_p - counts).sum() <= 1.0
        moved = np.flatnonzero((sums_p != sums).any(axis=1))
        assert len(moved) == 1
        assert np.abs(sums_p - sums)[moved[0]].sum() <= math.sqrt(d) + 1e-12


def test_add_remove_neighbor_moves_one_cluster_at_block_edges():
    # the same fact at row counts around the count/sum kernel's block edges,
    # where unpadded GEMMs of n and of n+1 rows can sum in different orders
    # and move the last bits of clusters the new row does not join
    rng = np.random.default_rng(2017)
    for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK):
        for d in (1, 2, 5):
            X = _uniform_ball(n, d, rng)
            row = _uniform_ball(1, d, rng)
            Xp = np.vstack([X, row])
            for k in (1, 3, 7):
                centers = _uniform_ball(k, d, rng)
                counts, sums = _counts_and_sums(X, _assign(X, centers), k)
                counts_p, sums_p = _counts_and_sums(Xp, _assign(Xp, centers), k)
                assert np.abs(counts_p - counts).sum() == 1.0
                moved = np.flatnonzero((sums_p != sums).any(axis=1))
                assert list(moved) == list(_assign(row, centers)), (n, d, k)


def test_dpem_kmeans_calibration_equals_audit():
    data = blobs(n=400, seed=3)
    for eps, iters, k in ((0.01, 30, 5), (0.4, 6, 3), (2.0, 4, 4)):
        _, trace = dpem_kmeans(data, k, iters, PrivacyBudget(eps, 1e-4),
                               rng=np.random.default_rng(0))
        eps_i = trace[0].eps_i
        spent = compose_trace(trace, "zcdp", 1e-4).epsilon
        assert spent <= eps
        assert spent == pytest.approx(eps, rel=SEARCH_REL_TOL)
        assert compose_trace(trace, "linear", 1e-4).epsilon == pytest.approx(
            2 * iters * eps_i, rel=1e-12)


def test_dpem_kmeans_centroid_group_charged_once_per_iteration():
    # counts plus one centroid group per iteration: every method recomposes
    # the J(k+1)-record trace exactly like 2J plain releases at eps_i
    data = blobs(n=300)
    iters, k, delta = 5, 4, 1e-4
    _, trace = dpem_kmeans(data, k, iters, PrivacyBudget(0.5, delta),
                           rng=np.random.default_rng(1))
    assert len(trace) == iters * (k + 1)
    assert len(trace.groups()) == 2 * iters
    eps_i = trace[0].eps_i
    plain = AccountingTrace([TraceRecord("laplace", 1.0, 1.0 / eps_i, eps_i,
                                         None, "x", j)
                             for j in range(2 * iters)])
    for method in ("linear", "advanced", "zcdp", "ma"):
        got = compose_trace(trace, method, delta, max_order=256)
        want = compose_trace(plain, method, delta, max_order=256)
        assert got.epsilon == pytest.approx(want.epsilon, rel=1e-12), method
        assert got.delta == pytest.approx(want.delta, rel=1e-12), method


def test_dpem_kmeans_add_remove_sensitivities():
    data = blobs(n=300)
    _, trace = dpem_kmeans(data, 3, 2, PrivacyBudget(0.5, 1e-4),
                           rng=np.random.default_rng(1))
    for r in trace:
        if r.label == "counts":
            assert r.sensitivity == 1.0 and not r.parallel
        else:
            assert r.parallel and r.sensitivity <= math.sqrt(data.d)
        assert r.noise_scale == pytest.approx(r.sensitivity / r.eps_i)
