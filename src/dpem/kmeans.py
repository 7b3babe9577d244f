"""Private k-means variants and the NICV quality measure.

All three run one Lloyd loop (assign, then count and sum each cluster) and
differ only in the update that makes the next centers from the counts and
sums. The private variants' update is a ``mechanisms.Release``, which draws
the noise, floors the noised counts and records the trace:

* ``lloyd``: the noise-free baseline; an empty cluster keeps its center;
* ``dplloyd``: Laplace noise on per-cluster counts and coordinate sums with
  combined sensitivity d+1, budget split either linearly across iterations
  or through zCDP composition;
* ``dpem_kmeans``: per-iteration Laplace noise on the count vector
  (sensitivity 1) and on each centroid (sensitivity sqrt(d) / noised
  count), composed via zCDP.

Both private variants are private under the add/remove neighbouring
relation: neighbouring datasets differ by one row, added or removed, inside
the unit L2 ball. Labels come from the centers of the previous iteration,
which are already public, so one added or removed row lands in exactly one
cluster. It moves the count vector by 1 in L1 and one cluster's coordinate
sums by at most sqrt(d) <= d in L1 (hence DPLloyd's d+1 bound). The k
centroid releases of one iteration therefore compose in parallel: together
they cost one release.

Centers are initialized uniformly at random inside the unit ball, which
costs no privacy budget and reads no data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .accountant import PrivacyBudget, zcdp_calibrate_pure
from .data import BoundedDataset, _uniform_ball
from .errors import DataError
from .mechanisms import AccountingTrace, Release


@dataclass(frozen=True)
class Clustering:
    """k centers plus per-point labels; every point carries its nearest
    center's label."""

    centers: np.ndarray      # (k, d)
    assignments: np.ndarray  # (N,)

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        a = np.asarray(self.assignments, dtype=int)
        if c.ndim != 2 or a.ndim != 1:
            raise ValueError("centers must be k x d and assignments length N")
        if a.min() < 0 or a.max() >= c.shape[0]:
            raise ValueError("assignment labels out of range")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "assignments", a)


def _nearest(X: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest center and its squared distance to it.

    One contiguous (N,) squared distance per center, summed left to right
    over the coordinates, and a running minimum over the centers, so no
    (N, k) array is built. The strict ``<`` gives a tie to the first center,
    as ``argmin`` does."""
    cols = np.ascontiguousarray(X.T)
    labels = np.zeros(X.shape[0], dtype=np.intp)
    best = None
    for c, center in enumerate(centers):
        dist = (cols[0] - center[0]) ** 2
        for j in range(1, len(cols)):
            dist += (cols[j] - center[j]) ** 2
        if best is None:
            best = dist
            continue
        np.putmask(labels, dist < best, c)
        np.minimum(best, dist, out=best)
    return labels, best


def _assign(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return _nearest(X, centers)[0]


def _counts_and_sums(X: np.ndarray, labels: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    counts = np.bincount(labels, minlength=k).astype(float)
    sums = np.column_stack([np.bincount(labels, weights=X[:, j], minlength=k)
                            for j in range(X.shape[1])])
    return counts, sums


def nicv(data: BoundedDataset, centers: np.ndarray) -> float:
    """Normalized intra-cluster variance: mean squared distance of each
    point to its nearest center."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise DataError("need a non-empty k x d center matrix")
    return float(_nearest(data.rows, centers)[1].mean())


def _lloyd_loop(data: BoundedDataset, k: int, iterations: int,
                rng: np.random.Generator, update: Callable) -> Clustering:
    """The loop every variant runs from k centers uniform in the unit ball:
    assign each row to its nearest center, count and sum each cluster, and
    take the next centers from ``update(centers, counts, sums, iteration)``."""
    X = data.rows
    centers = _uniform_ball(k, data.d, rng)
    for j in range(iterations):
        # kept alive until the next pass replaces it: freed earlier, it sends
        # the next pass's buffers to fresh pages (3x the minor page faults and
        # 20% slower at n=100k, k=5, d=2)
        labels = _assign(X, centers)
        counts, sums = _counts_and_sums(X, labels, k)
        centers = update(centers, counts, sums, j)
    return Clustering(centers, _assign(X, centers))


def lloyd(data: BoundedDataset, k: int, iterations: int,
          rng: np.random.Generator) -> Clustering:
    """Noise-free Lloyd iterations. An empty cluster keeps its center."""
    def update(centers, counts, sums, j):
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        return centers

    return _lloyd_loop(data, k, iterations, rng, update)


def dplloyd(data: BoundedDataset, k: int, iterations: int, eps: float,
            composition: str = "linear", delta: Optional[float] = None, *,
            rng: np.random.Generator, eps_i: Optional[float] = None
            ) -> tuple[Clustering, AccountingTrace]:
    """Lloyd iterations with Laplace noise on counts and coordinate sums.

    One iteration releases the counts and all coordinate sums together as a
    single pure-DP mechanism of L1 sensitivity d+1 under add/remove
    neighbours (Su et al. 2016): each iteration is charged one release.
    ``composition`` decides the per-iteration budget: "linear" gives the
    classic (d+1)J/eps noise scale, "zcdp" calibrates eps_i through zCDP
    composition of the J releases (``delta`` required). ``eps_i`` overrides
    the calibration, which is mainly useful for noise-free regression tests
    (eps_i=inf).
    """
    if composition not in ("linear", "zcdp"):
        raise ValueError("composition must be 'linear' or 'zcdp'")
    if eps_i is None:
        if composition == "linear":
            eps_i = eps / iterations
        elif delta is None:
            raise ValueError("zcdp composition needs a delta")
        else:
            eps_i = zcdp_calibrate_pure(iterations, PrivacyBudget(eps, delta))
    release = Release(eps_i, None, rng)

    def update(centers, counts, sums, j):
        release.iteration = j
        noised = release(np.concatenate([counts, sums.ravel()]), "laplace",
                         float(data.d + 1), "counts_and_sums")
        return noised[k:].reshape(sums.shape) / release.counts(noised[:k])[:, None]

    return _lloyd_loop(data, k, iterations, rng, update), release.trace


def dpem_kmeans(data: BoundedDataset, k: int, iterations: int,
                total: PrivacyBudget, rng: np.random.Generator,
                eps_i: Optional[float] = None
                ) -> tuple[Clustering, AccountingTrace]:
    """Centroid-perturbation k-means under zCDP composition.

    Each iteration releases the count vector (L1 sensitivity 1) and then
    each centroid (computed as the coordinate sums divided by the noised
    count, L1 sensitivity sqrt(d)/count), all through Laplace noise under
    add/remove neighbours. The k centroids read disjoint clusters, so they
    form one parallel group in the trace and are charged as one release:
    each iteration costs the counts plus one centroid group, and eps_i is
    calibrated over 2J pure-DP releases. The trace keeps all J(k+1)
    records. The draw order per iteration is counts, then centroids 1..k.
    """
    if eps_i is None:
        eps_i = zcdp_calibrate_pure(2 * iterations, total)
    release = Release(eps_i, None, rng)
    sqrt_d = math.sqrt(data.d)

    def update(centers, counts, sums, j):
        release.iteration = j
        counts = release.counts(release(counts, "laplace", 1.0, "counts"))
        for c in range(k):
            centers[c] = release(sums[c] / counts[c], "laplace", sqrt_d / counts[c],
                                 "centroid", component=c, parallel=True)
        return centers

    return _lloyd_loop(data, k, iterations, rng, update), release.trace
