"""Bounded datasets, the unit-ball preprocessing step and data-free points
inside the ball.

All estimators in this package assume every data row lies inside the unit
L2 ball; the sensitivity bounds used by the noise mechanisms are derived
from that assumption.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .mechanisms import triu_indices

# A row may exceed unit norm by at most this much (floating-point slack).
NORM_SLACK = 1e-12


@dataclass(frozen=True)
class BoundedDataset:
    """An N x d real matrix whose rows all have L2 norm <= 1.

    ``scale`` records the divisor applied by :func:`preprocess` so results
    can optionally be mapped back to the original coordinates. The rows
    must not change once ``pairs`` has been read.
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

    @classmethod
    def _prechecked(cls, rows: np.ndarray, scale: float = 1.0) -> "BoundedDataset":
        """Wrap a 2-d float matrix whose finite and norm passes have already
        run, without running them again: the rows ``preprocess`` has just
        checked and scaled, or rows taken from an already validated dataset
        (the bound holds row by row, so any subset of bounded rows is
        bounded)."""
        data = object.__new__(cls)
        object.__setattr__(data, "rows", rows)
        object.__setattr__(data, "scale", scale)
        return data

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def pairs(self) -> np.ndarray:
        """Read-only (N, d(d+1)/2) products x_a x_b of every row, a <= b in
        ``mechanisms.triu_indices`` order, so that ``gamma.T @ pairs`` packs
        all K weighted scatters in one product, summed over row blocks
        (``mog._row_block_product``). Built on first use, one column
        product per pair, stored column-major (the faster GEMM operand);
        never pickled, so a process pool ships only the rows."""
        a, b = triu_indices(self.d)
        cols = self.rows.T.copy()
        out = np.empty((len(a), self.n))
        for j in range(len(a)):
            np.multiply(cols[a[j]], cols[b[j]], out=out[j])
        out.flags.writeable = False
        return out.T

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "pairs"}


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
    if raw.shape[1] < 1:
        raise DataError(f"need at least one row and one column, got {raw.shape}")
    bad = ~np.isfinite(raw)
    if bad.any():
        row = int(np.nonzero(bad.any(axis=1))[0][0])
        raise DataError(f"non-finite entry in row {row}")
    # the passes above are BoundedDataset's own, so the result skips them
    max_norm = float(np.linalg.norm(raw, axis=1).max())
    if max_norm > 1.0 + NORM_SLACK:
        return BoundedDataset._prechecked(raw / max_norm, scale=max_norm)
    return BoundedDataset._prechecked(raw.copy())
