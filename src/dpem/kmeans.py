"""Private k-means variants and the NICV quality measure.

Three algorithms share the Lloyd assignment step:

* ``dplloyd``: Laplace noise on per-cluster counts and coordinate sums with
  combined sensitivity d+1, budget split either linearly across iterations
  or through zCDP composition;
* ``dpem_kmeans``: per-iteration Laplace noise on the count vector
  (sensitivity 1) and on each centroid (sensitivity sqrt(d) / noised
  count), composed via zCDP;
* ``lloyd``: the noise-free baseline.

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
from typing import Optional

import numpy as np

from .accountant import PrivacyBudget, zcdp_calibrate_pure
from .data import BoundedDataset
from .errors import DataError
from .mechanisms import COUNT_FLOOR, AccountingTrace, TraceRecord


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

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def _sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, k) squared distances, accumulated one coordinate at a time so no
    (N, k, d) array is built."""
    out = (X[:, 0, None] - centers[None, :, 0]) ** 2
    for j in range(1, X.shape[1]):
        out += (X[:, j, None] - centers[None, :, j]) ** 2
    return out


def _assign(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return _sq_dists(X, centers).argmin(axis=1)


def _uniform_ball(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """k points uniform in the unit L2 ball."""
    direc = rng.normal(size=(k, d))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    radius = rng.uniform(size=(k, 1)) ** (1.0 / d)
    return direc * radius


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
    return float(_sq_dists(data.rows, centers).min(axis=1).mean())


def lloyd(data: BoundedDataset, k: int, iterations: int,
          rng: np.random.Generator,
          init_centers: np.ndarray | None = None) -> Clustering:
    """Noise-free Lloyd iterations from a random in-ball initialization."""
    X = data.rows
    centers = _uniform_ball(k, data.d, rng) if init_centers is None \
        else np.array(init_centers, dtype=float)
    for _ in range(iterations):
        labels = _assign(X, centers)
        counts, sums = _counts_and_sums(X, labels, k)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
    return Clustering(centers, _assign(X, centers))


def dplloyd(data: BoundedDataset, k: int, iterations: int, eps: float,
            composition: str = "linear", delta: Optional[float] = None,
            rng: np.random.Generator | None = None,
            eps_i: Optional[float] = None
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
    if rng is None:
        rng = np.random.default_rng()
    if eps_i is None:
        if composition == "linear":
            eps_i = eps / iterations
        else:
            if delta is None:
                raise ValueError("zcdp composition needs a delta")
            eps_i = zcdp_calibrate_pure(iterations, PrivacyBudget(eps, delta))
    sens = float(data.d + 1)
    scale = 0.0 if math.isinf(eps_i) else sens / eps_i

    X = data.rows
    centers = _uniform_ball(k, data.d, rng)
    trace = AccountingTrace()
    for j in range(iterations):
        labels = _assign(X, centers)
        counts, sums = _counts_and_sums(X, labels, k)
        counts = counts + rng.laplace(0.0, scale, size=k)
        counts = np.maximum(counts, COUNT_FLOOR)
        sums = sums + rng.laplace(0.0, scale, size=sums.shape)
        centers = sums / counts[:, None]
        trace.append(TraceRecord(
            "laplace", sens, scale, eps_i, None, "counts_and_sums", j))
    return Clustering(centers, _assign(X, centers)), trace


def dpem_kmeans(data: BoundedDataset, k: int, iterations: int,
                total: PrivacyBudget, rng: np.random.Generator | None = None,
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
    if rng is None:
        rng = np.random.default_rng()
    if eps_i is None:
        eps_i = zcdp_calibrate_pure(2 * iterations, total)
    noise_free = math.isinf(eps_i)
    sqrt_d = math.sqrt(data.d)

    X = data.rows
    centers = _uniform_ball(k, data.d, rng)
    trace = AccountingTrace()
    for j in range(iterations):
        labels = _assign(X, centers)
        counts, sums = _counts_and_sums(X, labels, k)
        count_scale = 0.0 if noise_free else 1.0 / eps_i
        counts_noised = counts + rng.laplace(0.0, count_scale, size=k)
        trace.append(TraceRecord(
            "laplace", 1.0, count_scale, eps_i, None, "counts", j))
        floored = counts_noised < COUNT_FLOOR
        counts_noised = np.maximum(counts_noised, COUNT_FLOOR)
        for c in range(k):
            sens = sqrt_d / counts_noised[c]
            scale = 0.0 if noise_free else sens / eps_i
            centers[c] = sums[c] / counts_noised[c] \
                + rng.laplace(0.0, scale, size=data.d)
            trace.append(TraceRecord(
                "laplace", sens, scale, eps_i, None, "centroid", j,
                component=c, flagged=bool(floored[c]), parallel=True))
    return Clustering(centers, _assign(X, centers)), trace
