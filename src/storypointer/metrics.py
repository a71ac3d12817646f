"""Regression and classification metrics with fold aggregation.

The squared-error metric is reported twice: `mse` is the plain mean of
squared errors and is the headline value in comparison tables; `rmse`
is its square root, carried alongside because published formulations of
this metric sometimes print the rooted form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .corpus import BUCKETS


def _paired(actual: Sequence[float], predicted: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1:
        raise ValueError(f"actual and predicted must be 1-d and equal length, got {a.shape} vs {p.shape}")
    if a.size == 0:
        raise ValueError("metrics need at least one pair")
    return a, p


def mae(actual: Sequence[float], predicted: Sequence[float]) -> float:
    a, p = _paired(actual, predicted)
    return float(np.abs(a - p).mean())


def mdae(actual: Sequence[float], predicted: Sequence[float]) -> float:
    a, p = _paired(actual, predicted)
    return float(np.median(np.abs(a - p)))


def mse(actual: Sequence[float], predicted: Sequence[float]) -> Tuple[float, float]:
    """Returns (mean squared error, its square root)."""
    a, p = _paired(actual, predicted)
    value = float(((a - p) ** 2).mean())
    return value, float(np.sqrt(value))


@dataclass(frozen=True)
class MetricSet:
    mae: float
    mdae: float
    mse: float
    rmse: float
    n: int


def metric_set(actual: Sequence[float], predicted: Sequence[float]) -> MetricSet:
    a, p = _paired(actual, predicted)
    m, r = mse(a, p)
    return MetricSet(mae=mae(a, p), mdae=mdae(a, p), mse=m, rmse=r, n=int(a.size))


METRIC_NAMES = ("mae", "mdae", "mse", "rmse")


def aggregate_folds(folds: Sequence[MetricSet]) -> Dict[str, Tuple[float, float]]:
    """Per metric: (mean, population standard deviation) across folds."""
    if not folds:
        raise ValueError("aggregate_folds needs at least one fold")
    out: Dict[str, Tuple[float, float]] = {}
    for name in METRIC_NAMES:
        values = np.array([getattr(f, name) for f in folds], dtype=np.float64)
        out[name] = (float(values.mean()), float(values.std()))
    return out


def confusion_matrix(
    actual_buckets: Sequence[int], predicted_buckets: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Counts and row-normalized views over BUCKETS; rows = actual, columns = predicted."""
    a = list(actual_buckets)
    p = list(predicted_buckets)
    if len(a) != len(p):
        raise ValueError(f"length mismatch: {len(a)} actuals vs {len(p)} predictions")
    index = {b: i for i, b in enumerate(BUCKETS)}
    counts = np.zeros((len(BUCKETS), len(BUCKETS)), dtype=np.int64)
    for actual, predicted in zip(a, p):
        if actual not in index or predicted not in index:
            raise ValueError(f"bucket pair ({actual}, {predicted}) outside scheme {BUCKETS}")
        counts[index[actual], index[predicted]] += 1
    row_sums = counts.sum(axis=1, keepdims=True)
    normalized = np.divide(
        counts, row_sums, out=np.zeros(counts.shape, dtype=np.float64), where=row_sums > 0
    )
    return counts, normalized
