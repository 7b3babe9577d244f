"""Noise draws, output projections and the one release step.

Laplace and Gaussian perturbation of released statistics, symmetric-matrix
(upper-triangle) Gaussian perturbation for covariances, the simplex /
positive-semidefinite projections that keep released parameters valid, and
the ``AccountingTrace`` that records every release.

Every private path releases through ``Release``, under one ``ROW_CHANGE``
relation. This module draws, projects and records; it takes its noise
scales from ``accountant`` (``laplace_scale``, ``gaussian_sigma``), which
also prices every record. At ``eps_i = inf`` every noise scale is 0 and
every mechanism the identity, which lets the private pipelines be exercised
against their non-private counterparts in tests.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .accountant import gaussian_sigma, laplace_scale
from .errors import DataError

# Noised mixture-component and cluster counts are clamped here before they
# enter a sensitivity denominator (one effective datapoint).
COUNT_FLOOR = 1.0
# Every released covariance-like matrix is projected onto eigenvalues >= this.
PSD_FLOOR = 1e-6
# Sensitivity per unit of one row's largest contribution: a replaced row takes
# out one contribution and puts in another (Dwork & Roth 2014, section 2.3).
ROW_CHANGE = {"replace-one": 2.0, "add-remove": 1.0}


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One mechanism invocation, with enough metadata to re-account it.

    ``beta`` stores the Gaussian variance sigma^2 directly (what zCDP
    accounting divides by); ``flagged`` marks records whose sensitivity used
    a floored count. ``parallel`` marks a release that reads one cell of a
    disjoint partition of the data: all parallel records sharing (label,
    iteration) form one group, and a neighbouring pair of datasets differs
    inside at most one of its cells (see ``AccountingTrace.groups``).
    Records are slotted, without a ``__dict__``: an audited trace holds
    thousands of them.
    """

    kind: str
    sensitivity: float
    noise_scale: float
    eps_i: float
    delta_i: Optional[float]  # None for Laplace
    label: str
    iteration: int
    component: Optional[int] = None
    flagged: bool = False
    beta: Optional[float] = None
    parallel: bool = False


class AccountingTrace:
    """Ordered list of mechanism invocations for one private run, and the
    ``ROW_CHANGE`` relation they hold under (None for a hand-built trace)."""

    def __init__(self, records: list[TraceRecord] | None = None,
                 neighbours: Optional[str] = None):
        self.records: list[TraceRecord] = list(records) if records else []
        self.neighbours = neighbours

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    def groups(self) -> list[list[TraceRecord]]:
        """Records bundled for parallel composition, in trace order.

        Parallel records sharing (label, iteration) read disjoint cells of
        the data, so a neighbouring pair changes the input of at most one of
        them and the group costs what its most expensive member costs
        (McSherry 2009). Every other record is a group of its own.
        """
        groups: dict = {}
        for i, r in enumerate(self.records):
            key = (r.label, r.iteration) if r.parallel else i
            groups.setdefault(key, []).append(r)
        return list(groups.values())

    def flagged(self) -> list[TraceRecord]:
        return [r for r in self.records if r.flagged]


def _draw(kind: str, scale: float, size, rng: np.random.Generator) -> np.ndarray:
    if kind == "laplace":
        return rng.laplace(0.0, scale, size=size)
    if kind == "gaussian":
        return rng.normal(0.0, scale, size=size)
    raise ValueError(f"unknown mechanism kind {kind!r}")


def perturb_simplex(weights: np.ndarray, kind: str, scale: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Noise a probability vector, clip to [0, 1] and renormalize.

    If clipping zeroes every coordinate the uniform vector is returned (the
    clip-renormalize rule is undefined at the all-zero corner).
    """
    w = np.asarray(weights, dtype=float)
    noisy = w + _draw(kind, scale, w.shape, rng)
    clipped = np.clip(noisy, 0.0, 1.0)
    total = clipped.sum()
    if total <= 0.0:
        return np.full(w.shape, 1.0 / w.shape[0])
    return clipped / total


def perturb_mean(mean: np.ndarray, kind: str, scale: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Add elementwise i.i.d. noise to a mean vector (no projection)."""
    m = np.asarray(mean, dtype=float)
    return m + _draw(kind, scale, m.shape, rng)


def psd_project(mat: np.ndarray, floor: float) -> np.ndarray:
    """Clamp eigenvalues below ``floor`` up to it.

    Already-compliant matrices are returned unchanged, so the projection is
    exactly idempotent. An eigenvalue short of ``floor`` by no more than the
    rounding error of one decomposition (8 d machine epsilons times the
    largest eigenvalue magnitude) counts as compliant: ``eigh`` of a clamped
    output returns its clamped eigenvalues within that of ``floor``, on
    either side (at most 2.9 d epsilons in 100,000 random trials).
    """
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        raise DataError("non-finite entries in matrix")
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() >= floor - 8 * len(vals) * np.finfo(float).eps * np.abs(vals).max():
        return mat
    vals = np.maximum(vals, floor)
    out = (vecs * vals) @ vecs.T
    return 0.5 * (out + out.T)


@functools.lru_cache(maxsize=None)
def triu_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle of a d x d matrix,
    diagonal included, in ``np.triu_indices`` order: the one layout of every
    packed symmetric statistic (noise draws, pair products, scatters).
    Cached per d and read-only."""
    rows, cols = np.triu_indices(d)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def unpack_triu(packed: np.ndarray, d: int) -> np.ndarray:
    """Exactly symmetric (..., d, d) matrices from their packed upper
    triangles (..., d(d+1)/2), each entry written to both of its places."""
    rows, cols = triu_indices(d)
    out = np.empty(packed.shape[:-1] + (d, d))
    out[..., rows, cols] = packed
    out[..., cols, rows] = packed
    return out


def analyze_gauss_perturb(cov: np.ndarray, kind: str, scale: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Symmetric Gaussian perturbation of a covariance-like matrix.

    Draws d(d+1)/2 i.i.d. N(0, scale^2) variates into the upper triangle
    (diagonal included), mirrors them to the lower triangle, adds the
    resulting symmetric matrix, and projects back to the PSD cone at
    ``PSD_FLOOR``."""
    if kind != "gaussian":
        raise ValueError("matrix perturbation requires Gaussian noise")
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DataError(f"expected a square matrix, got shape {cov.shape}")
    if np.abs(cov - cov.T).max() > 1e-9:
        raise DataError("input matrix is not symmetric")
    d = cov.shape[0]
    noise = unpack_triu(rng.normal(0.0, scale, size=d * (d + 1) // 2), d)
    return psd_project(cov + noise, PSD_FLOOR)


class Release:
    """The release step of one private run, through which it reads the data.

    A call passes ``bound``, the most one row adds to the statistic after
    any public denominator (L1 for Laplace, L2 for Gaussian), which the
    run's ``neighbours`` relation scales into the sensitivity. It records
    the mechanism in ``trace`` and returns ``perturb(value, kind, scale,
    rng)``, ``scale`` being the Laplace b or the Gaussian sigma. The record
    of a ``component`` whose count ``counts`` floored is flagged. Set
    ``iteration`` before each iteration.
    """

    def __init__(self, neighbours: str, eps_i: float, delta_i: Optional[float],
                 rng: Optional[np.random.Generator]):
        self.row_change = ROW_CHANGE[neighbours]
        self.eps_i, self.delta_i, self.rng = eps_i, delta_i, rng
        self.trace = AccountingTrace(neighbours=neighbours)
        self.iteration = 0
        self.floored = None

    def scale(self, kind: str, bound: float) -> tuple[float, float]:
        """(sensitivity, noise scale) of a ``kind`` release of per-row
        ``bound``; noise scale 0 at ``eps_i = inf``."""
        sensitivity = self.row_change * bound
        if math.isinf(self.eps_i):
            return sensitivity, 0.0
        if kind == "laplace":
            return sensitivity, laplace_scale(sensitivity, self.eps_i)
        return sensitivity, gaussian_sigma(sensitivity, self.eps_i, self.delta_i)

    def __call__(self, value, kind: str, bound: float, label: str,
                 component: Optional[int] = None, parallel: bool = False,
                 perturb=perturb_mean):
        (sensitivity, scale), gaussian = self.scale(kind, bound), kind == "gaussian"
        flagged = component is not None and bool(self.floored[component])
        self.trace.append(TraceRecord(
            kind, sensitivity, scale, self.eps_i,
            self.delta_i if gaussian else None, label, self.iteration, component,
            flagged, scale ** 2 if gaussian else None, parallel))
        return perturb(value, kind, scale, self.rng)

    def counts(self, counts: np.ndarray) -> np.ndarray:
        """Noised counts floored at ``COUNT_FLOOR``, for use as divisors."""
        self.floored = counts < COUNT_FLOOR
        return np.maximum(counts, COUNT_FLOOR)
