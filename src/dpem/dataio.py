"""Dataset ingestion, synthetic data, cross-validation splits, and result
persistence (line-delimited JSON records plus a flat CSV summary)."""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError
from .mog import MoGParams, PSD_FLOOR


def load_csv(path: str | Path, has_header: bool = False) -> np.ndarray:
    """Read a rectangular numeric CSV into an N x d matrix.

    Ragged rows and non-numeric cells are rejected with their 1-based line
    number.
    """
    path = Path(path)
    rows: list[list[float]] = []
    width: Optional[int] = None
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and has_header:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataError(
                    f"{path}: ragged row at line {lineno} "
                    f"({len(row)} cells, expected {width})"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise DataError(f"{path}: non-numeric cell at line {lineno}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def write_csv(path: str | Path, matrix: np.ndarray) -> None:
    """Write a numeric matrix with round-trip float precision."""
    matrix = np.asarray(matrix, dtype=float)
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])


def synth_mog(n: int, d: int, k: int, separation: float,
              seed: int | None = None) -> tuple[np.ndarray, MoGParams]:
    """Draw n points from a planted mixture, scaled into the unit ball.

    Component means are placed with minimum pairwise distance ``separation``
    (in units of the unit component standard deviation), then the sample and
    the ground-truth parameters are rescaled together so the returned matrix
    is unit-ball bounded and the returned parameters stay comparable to it.
    """
    if n < k:
        raise DataError(f"need n >= k, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(k, d))
    if k > 1:
        dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
        min_dist = dists[~np.eye(k, dtype=bool)].min()
        if min_dist <= 0:
            means = means + rng.normal(size=(k, d)) * 1e-3
            dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
            min_dist = dists[~np.eye(k, dtype=bool)].min()
        means *= separation / min_dist
    weights = rng.dirichlet(np.full(k, 10.0))
    labels = rng.choice(k, size=n, p=weights)
    raw = means[labels] + rng.normal(size=(n, d))
    max_norm = float(np.linalg.norm(raw, axis=1).max())
    scale = max_norm if max_norm > 1.0 else 1.0
    raw = raw / scale
    true = MoGParams(
        weights=weights,
        means=means / scale,
        covariances=np.repeat(np.eye(d)[None] / scale ** 2, k, axis=0),
        psd_floor=min(PSD_FLOOR, 1.0 / scale ** 2),
    )
    return raw, true


def cv_split(data: np.ndarray, folds: int,
             seed: int | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Disjoint test folds covering the data; 90/10 splits at folds=10."""
    data = np.asarray(data)
    n = data.shape[0]
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if n < folds:
        raise DataError(f"cannot split {n} rows into {folds} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    splits = []
    bounds = np.linspace(0, n, folds + 1).astype(int)
    for f in range(folds):
        test_idx = perm[bounds[f]:bounds[f + 1]]
        train_idx = np.concatenate([perm[:bounds[f]], perm[bounds[f + 1]:]])
        splits.append((data[train_idx], data[test_idx]))
    return splits


@dataclass
class ExperimentResult:
    """One (method, epsilon, fold, seed) cell of a sweep."""

    model: str
    method: str
    scenario: str
    epsilon: float
    delta: float
    fold: int
    seed: int
    metric: float            # test log-likelihood per point, or NICV
    metric_name: str
    n_mechanisms: int
    audited_epsilon: float   # trace recomposed under `method`
    audited_delta: float
    wall_time: float

    def to_json(self) -> str:
        record = asdict(self)
        for key, val in record.items():
            # keep the stream strict JSON: inf/nan become strings
            if isinstance(val, float) and not np.isfinite(val):
                record[key] = repr(val)
        return json.dumps(record, sort_keys=True)


def write_results_jsonl(path: str | Path, results: list[ExperimentResult]) -> None:
    with Path(path).open("w") as handle:
        for res in results:
            handle.write(res.to_json() + "\n")


def summarize(results: list[ExperimentResult]) -> list[dict]:
    """Median and interquartile range of the metric per (method, epsilon)."""
    cells: dict[tuple[str, float], list[float]] = {}
    meta: dict[tuple[str, float], ExperimentResult] = {}
    for res in results:
        key = (res.method, res.epsilon)
        cells.setdefault(key, []).append(res.metric)
        meta[key] = res
    rows = []
    for key in sorted(cells, key=lambda t: (t[0], t[1])):
        vals = np.array(cells[key])
        rows.append({
            "model": meta[key].model,
            "method": key[0],
            "epsilon": key[1],
            "metric_name": meta[key].metric_name,
            "median": float(np.median(vals)),
            "q25": float(np.percentile(vals, 25)),
            "q75": float(np.percentile(vals, 75)),
            "n_cells": int(vals.size),
        })
    return rows


def write_summary_csv(path: str | Path, rows: list[dict]) -> None:
    if not rows:
        raise DataError("nothing to summarize")
    fields = list(rows[0].keys())
    with Path(path).open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key, val in out.items():
                if isinstance(val, float):
                    out[key] = repr(val)
            writer.writerow(out)
