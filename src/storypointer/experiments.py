"""Experiment orchestration: featurize, split, train, evaluate, aggregate.

Five standard setups are named E1 through E5: static embeddings as-is
(E1) or fine-tuned on the task corpus (E2), contextual embeddings as-is
(E3) or fine-tuned (E4), and fine-tuned contextual embeddings with a
9-class softmax head instead of regression (E5).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import LabeledCorpus, RequirementRecord, SplitPlan, bucketize
from .estimator import EstimatorModel, HeadConfig, predict, require_features, train_estimator
from .kernel import RngStream
from .metrics import MetricSet, aggregate_folds, confusion_matrix, metric_set

EXPERIMENTS = {
    "E1": {"embedding": "static", "output": "linear"},
    "E2": {"embedding": "static", "output": "linear"},
    "E3": {"embedding": "contextual", "output": "linear"},
    "E4": {"embedding": "contextual", "output": "linear"},
    "E5": {"embedding": "contextual", "output": "softmax"},
}


@dataclass
class FoldResult:
    label: object
    metrics: MetricSet
    actual: np.ndarray
    predicted: np.ndarray
    best_epoch: int
    stop_reason: str


@dataclass
class EvalReport:
    experiment: str
    folds: List[FoldResult]
    aggregate: Dict[str, Tuple[float, float]]
    provenance: dict
    confusion: Optional[np.ndarray] = None
    confusion_normalized: Optional[np.ndarray] = None


def carve_validation(
    records: Sequence[RequirementRecord], fraction: float, seed: int,
) -> Tuple[List[int], List[int]]:
    """Index split of a training portion into (train, validation)."""
    if not 0 < fraction < 1:
        raise ValueError(f"the validation fraction must be between 0 and 1, got {fraction}")
    n = len(records)
    if n < 2:
        raise ValueError("training portion too small to carve validation from")
    n_val = max(1, int(round(n * fraction)))
    if n_val >= n:
        n_val = n - 1
    order = RngStream(seed).child("val-carve").permutation(n)
    return sorted(order[n_val:]), sorted(order[:n_val])


def run_experiment(
    experiment: str,
    corpus: LabeledCorpus,
    plan: SplitPlan,
    featurizer,
    head_config: HeadConfig,
    val_fraction: float = 0.1,
    seed: int = 0,
) -> EvalReport:
    """Train and evaluate one head per round of the split plan."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    wants = EXPERIMENTS[experiment]
    if head_config.output != wants["output"]:
        raise ValueError(
            f"{experiment} needs a {wants['output']} head, got {head_config.output!r}"
        )
    require_features(head_config, featurizer.dimension, wants["embedding"], featurizer)

    records = corpus.records
    features = featurizer.featurize([r.text for r in records])
    efforts = np.array([r.effort for r in records], dtype=np.float64)
    row_of = {r.id: i for i, r in enumerate(records)}

    folds: List[FoldResult] = []
    for label, train_records, test_records in plan.rounds(corpus):
        train_rows = [row_of[r.id] for r in train_records]
        test_rows = [row_of[r.id] for r in test_records]
        fit_idx, val_idx = carve_validation(
            train_records, val_fraction, RngStream(seed).child(f"fold-{label}").seed
        )
        fit_rows = [train_rows[i] for i in fit_idx]
        val_rows = [train_rows[i] for i in val_idx]

        model = EstimatorModel(head_config, features.dimension, source=featurizer.describe())
        history = train_estimator(
            model,
            features.select(fit_rows), efforts[fit_rows],
            features.select(val_rows), efforts[val_rows],
        )

        predicted = predict(model, features.select(test_rows))
        actual = efforts[test_rows]
        folds.append(FoldResult(
            label=label,
            metrics=metric_set(actual, predicted),
            actual=actual,
            predicted=predicted,
            best_epoch=history.best_epoch,
            stop_reason=history.stop_reason,
        ))

    report = EvalReport(
        experiment=experiment,
        folds=folds,
        aggregate=aggregate_folds([f.metrics for f in folds]),
        provenance={
            "experiment": experiment,
            "split": {"kind": plan.kind, "seed": plan.seed, "rounds": len(folds)},
            "head": asdict(head_config),
            "embedding": featurizer.describe(),
            "seed": seed,
            "n_records": len(records),
        },
    )
    if head_config.output == "softmax":
        counts, normalized = confusion_matrix(
            [bucketize(a) for a in np.concatenate([f.actual for f in folds])],
            [bucketize(p) for p in np.concatenate([f.predicted for f in folds])],
        )
        report.confusion = counts
        report.confusion_normalized = normalized
    return report
