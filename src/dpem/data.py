"""Bounded datasets, the unit-ball preprocessing step and data-free points
inside the ball.

All estimators in this package assume every data row lies inside the unit
L2 ball; the sensitivity bounds used by the noise mechanisms are derived
from that assumption.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# A row may exceed unit norm by at most this much (floating-point slack).
NORM_SLACK = 1e-12


@dataclass(frozen=True)
class BoundedDataset:
    """An N x d real matrix whose rows all have L2 norm <= 1.

    ``scale`` records the divisor applied by :func:`preprocess` so results
    can optionally be mapped back to the original coordinates.
    """

    rows: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise DataError(f"expected a 2-d matrix, got shape {rows.shape}")
        if rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DataError(f"need at least one row and one column, got {rows.shape}")
        bad = ~np.isfinite(rows)
        if bad.any():
            row = int(np.nonzero(bad.any(axis=1))[0][0])
            raise DataError(f"non-finite entry in row {row}")
        norms = np.linalg.norm(rows, axis=1)
        if norms.max() > 1.0 + NORM_SLACK:
            row = int(np.argmax(norms))
            raise DataError(
                f"row {row} has L2 norm {norms[row]:.6g} > 1; preprocess() first"
            )
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


def _uniform_ball(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """k points uniform in the unit L2 ball."""
    direc = rng.normal(size=(k, d))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    radius = rng.uniform(size=(k, 1)) ** (1.0 / d)
    return direc * radius


def preprocess(raw: np.ndarray) -> BoundedDataset:
    """Scale a raw matrix into the unit L2 ball.

    Every row is divided by the maximum row norm whenever that maximum
    exceeds 1; already-bounded data is returned unchanged, which makes the
    operation idempotent. The divisor is recorded on the returned dataset.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim == 1:
        raw = raw.reshape(1, -1)
    if raw.ndim != 2 or raw.shape[0] < 1:
        raise DataError(f"expected a non-empty 2-d matrix, got shape {raw.shape}")
    bad = ~np.isfinite(raw)
    if bad.any():
        row = int(np.nonzero(bad.any(axis=1))[0][0])
        raise DataError(f"non-finite entry in row {row}")
    max_norm = float(np.linalg.norm(raw, axis=1).max())
    if max_norm > 1.0 + NORM_SLACK:
        return BoundedDataset(raw / max_norm, scale=max_norm)
    return BoundedDataset(raw.copy(), scale=1.0)
