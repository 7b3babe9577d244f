"""Private k-means variants and the NICV quality measure.

All three run one Lloyd loop (assign, then count and sum each cluster) and
differ only in the update that makes the next centers from the counts and
sums. The counts and sums come from one-hot GEMMs of one fixed shape over
blocks of rows, the last block zero-padded: counts are exact, and sums
differ from a sequential sum only in the last bits. The private variants'
update is a ``mechanisms.Release``, which draws the noise, floors the
noised counts and records the trace:

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
sums by at most sqrt(d) <= d in L1 (hence DPLloyd's d+1 bound), and since
every GEMM has the same shape, it leaves every other cluster's sums
unchanged bit for bit. The k centroid releases of one iteration therefore
compose in parallel: together they cost one release.

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


# rows per block of _nearest, whose three block buffers stay in cache (at
# n=100k, k=5, d=2, 16384 and 32768 timed best, 8192 and 65536 slower), and
# of _counts_and_sums, which pads its last block to this many rows
BLOCK = 16384


def _nearest(X: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest center and its squared distance to it.

    The rows are walked in blocks of ``BLOCK``. In each block, one squared
    distance per center is summed left to right over the coordinates into
    a reused buffer, and a running minimum over the centers is kept, so no
    (N, k) array and no (N,) temporary is built. The strict ``<`` gives a
    tie to the first center, as ``argmin`` does. Column-major X is read in
    place; any other layout is copied to it once per call."""
    cols = np.ascontiguousarray(X.T)
    d, n = cols.shape
    labels = np.zeros(n, dtype=np.intp)
    best = np.empty(n)
    size = min(n, BLOCK)
    dist, tmp, closer = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for start in range(0, n, BLOCK):
        block = slice(start, start + BLOCK)
        low, lab = best[block], labels[block]
        # only the last block can be shorter
        dist, tmp, closer = dist[:len(low)], tmp[:len(low)], closer[:len(low)]
        for c, center in enumerate(centers):
            # the first center's distances go straight into the minimum
            out = low if c == 0 else dist
            np.subtract(cols[0, block], center[0], out=out)
            np.square(out, out=out)
            for j in range(1, d):
                np.subtract(cols[j, block], center[j], out=tmp)
                np.square(tmp, out=tmp)
                out += tmp
            if c:
                np.less(dist, low, out=closer)
                np.putmask(lab, closer, c)
                np.minimum(low, dist, out=low)
    return labels, best


def _assign(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return _nearest(X, centers)[0]


def _counts_and_sums(X: np.ndarray, labels: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's row count and coordinate sums, for labels in [0, k).

    The rows are walked in blocks of ``BLOCK``. Each block's labels are
    written as a (k, BLOCK) one-hot into a reused buffer; its product with
    the block's rows adds the sums, and its product with a vector of ones
    adds the counts. The last, shorter block is zero-padded to ``BLOCK``
    rows in the one-hot and in the rows, so every product has the same
    shape and sums in the same order whatever N is: a row appended to X
    changes its own cluster's sums and no other cluster's bits. Counts are
    exact; sums may differ from a sequential sum in the last bits.
    Column-major X is read in place; any other layout is copied to it once
    per call, so the result does not depend on the layout."""
    cols = np.asfortranarray(X)
    n, d = cols.shape
    onehot, ones, ids = np.empty((k, BLOCK)), np.ones(BLOCK), np.arange(k)[:, None]
    counts, sums = np.zeros(k), np.zeros((k, d))
    for start in range(0, n, BLOCK):
        lab, rows = labels[start:start + BLOCK], cols[start:start + BLOCK]
        m = len(lab)
        if m < BLOCK:
            # only the last block can be shorter
            onehot[:, m:] = 0.0
            rows = np.zeros((BLOCK, d), order="F")
            rows[:m] = cols[start:]
        np.equal(lab, ids, out=onehot[:, :m], casting="unsafe")
        sums += onehot @ rows
        counts += onehot @ ones
    return counts, sums


def nicv(data: BoundedDataset, centers: np.ndarray) -> float:
    """Normalized intra-cluster variance: mean squared distance of each
    point to its nearest center."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] < 1 or centers.shape[1] != data.d:
        raise DataError(f"need a non-empty k x {data.d} center matrix, "
                        f"got shape {centers.shape}")
    if not np.isfinite(centers).all():
        raise DataError("centers must be finite")
    return float(_nearest(data.rows, centers)[1].mean())


def _check_run(k: int, iterations: int) -> None:
    if k < 1 or iterations < 1:
        raise ValueError(f"k and iterations must be >= 1, got {k} and {iterations}")


def _lloyd_loop(data: BoundedDataset, k: int, iterations: int,
                rng: np.random.Generator, update: Callable) -> Clustering:
    """The loop every variant runs from k centers uniform in the unit ball:
    assign each row to its nearest center, count and sum each cluster, and
    take the next centers from ``update(centers, counts, sums, iteration)``.
    The rows are copied column-major once per run, so every assignment and
    every cluster's coordinate sums read contiguous columns in place."""
    X = np.asfortranarray(data.rows)
    centers = _uniform_ball(k, data.d, rng)
    for j in range(iterations):
        counts, sums = _counts_and_sums(X, _assign(X, centers), k)
        centers = update(centers, counts, sums, j)
    return Clustering(centers, _assign(X, centers))


def lloyd(data: BoundedDataset, k: int, iterations: int,
          rng: np.random.Generator) -> Clustering:
    """Noise-free Lloyd iterations. An empty cluster keeps its center."""
    _check_run(k, iterations)

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
    _check_run(k, iterations)
    if composition not in ("linear", "zcdp"):
        raise ValueError("composition must be 'linear' or 'zcdp'")
    if eps_i is None:
        if composition == "linear":
            eps_i = eps / iterations
        elif delta is None:
            raise ValueError("zcdp composition needs a delta")
        else:
            eps_i = zcdp_calibrate_pure(iterations, PrivacyBudget(eps, delta))
    release = Release("add-remove", eps_i, None, rng)

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
    _check_run(k, iterations)
    if eps_i is None:
        eps_i = zcdp_calibrate_pure(2 * iterations, total)
    release = Release("add-remove", eps_i, None, rng)
    sqrt_d = math.sqrt(data.d)

    def update(centers, counts, sums, j):
        release.iteration = j
        counts = release.counts(release(counts, "laplace", 1.0, "counts"))
        for c in range(k):
            centers[c] = release(sums[c] / counts[c], "laplace", sqrt_d / counts[c],
                                 "centroid", component=c, parallel=True)
        return centers

    return _lloyd_loop(data, k, iterations, rng, update), release.trace
