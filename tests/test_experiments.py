"""Experiment runner: fold orchestration, aggregation, provenance."""

import numpy as np
import pytest

from storypointer.corpus import (
    LabeledCorpus,
    RequirementRecord,
    clean_text,
    kfold_split,
    leave_one_project_out,
)
from storypointer.estimator import HeadConfig
from storypointer.experiments import (
    EXPERIMENTS,
    carve_validation,
    run_experiment,
)
from storypointer.features import StaticFeaturizer
from storypointer.metrics import mae, mdae, mse
from storypointer.static_embed import StaticTrainConfig, train_static
from storypointer.corpus import UnlabeledCorpus

PHRASES = [
    "add login form validation",
    "fix crash on empty cart",
    "migrate billing export job",
    "update search index nightly",
    "refactor report cache layer",
    "support bulk user import",
]


def make_corpus(n=36, n_projects=3, seed=0) -> LabeledCorpus:
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        raw = PHRASES[i % len(PHRASES)] + f" ticket {i}"
        records.append(RequirementRecord(
            id=f"req-{i:03d}",
            project=f"proj{i % n_projects}",
            raw_text=raw,
            text=clean_text(raw),
            effort=float(rng.choice([1, 2, 3, 5, 8])),
            degenerate=False,
        ))
    return LabeledCorpus(records=records)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus()


@pytest.fixture(scope="module")
def featurizer(corpus):
    docs = UnlabeledCorpus(documents=[r.text for r in corpus.records])
    model = train_static(docs, StaticTrainConfig(mode="cbow", dimension=8, epochs=2, seed=0))
    return StaticFeaturizer(model, mode="pooled")


@pytest.fixture(scope="module")
def ctx_featurizer(corpus):
    from storypointer.features import ContextualFeaturizer
    from storypointer.transformer import TransformerConfig, TransformerModel
    from storypointer.wordpiece import build_wordpiece_vocab

    vocab = build_wordpiece_vocab(
        UnlabeledCorpus(documents=[r.text for r in corpus.records]), size=120
    )
    config = TransformerConfig(layers=1, hidden=8, heads=2, ff=12, max_len=16,
                               vocab_size=len(vocab), dropout=0.0, seed=0)
    return ContextualFeaturizer(TransformerModel(config, vocab), mode="pooled")


def quick_head(output="linear"):
    return HeadConfig(mode="pooled", dense_sizes=(8, 4), output=output,
                      epochs=4, patience=4, batch_size=16, seed=0)


class TestValidationCarve:
    def test_carve_is_a_partition(self, corpus):
        train_idx, val_idx = carve_validation(corpus.records, 0.1, seed=3)
        assert set(train_idx) | set(val_idx) == set(range(len(corpus.records)))
        assert set(train_idx) & set(val_idx) == set()

    def test_fraction_controls_the_val_share(self, corpus):
        _, val_idx = carve_validation(corpus.records, 0.25, seed=0)
        assert len(val_idx) == round(0.25 * len(corpus.records))

    def test_tiny_sets_keep_at_least_one_on_each_side(self):
        records = make_corpus(n=3).records
        train_idx, val_idx = carve_validation(records, 0.01, seed=0)
        assert len(val_idx) == 1
        assert len(train_idx) == 2
        with pytest.raises(ValueError):
            carve_validation(records[:1], 0.1, seed=0)

    def test_seed_changes_the_carve(self, corpus):
        a = carve_validation(corpus.records, 0.2, seed=1)
        b = carve_validation(corpus.records, 0.2, seed=2)
        assert a != b
        assert a == carve_validation(corpus.records, 0.2, seed=1)


class TestExperimentCatalog:
    def test_five_experiments_are_registered(self):
        assert set(EXPERIMENTS) == {"E1", "E2", "E3", "E4", "E5"}

    def test_only_the_last_uses_classification(self):
        outputs = {k: v["output"] for k, v in EXPERIMENTS.items()}
        assert outputs == {"E1": "linear", "E2": "linear", "E3": "linear",
                          "E4": "linear", "E5": "softmax"}

    def test_embedding_kinds_alternate(self):
        assert EXPERIMENTS["E1"]["embedding"] == "static"
        assert EXPERIMENTS["E2"]["embedding"] == "static"
        assert EXPERIMENTS["E3"]["embedding"] == "contextual"
        assert EXPERIMENTS["E5"]["embedding"] == "contextual"


class TestRunExperiment:
    def test_kfold_report_structure(self, corpus, featurizer):
        plan = kfold_split(corpus, k=3, seed=0)
        report = run_experiment("E1", corpus, plan, featurizer, quick_head(), seed=0)
        assert report.experiment == "E1"
        assert [f.label for f in report.folds] == [0, 1, 2]
        assert sum(len(f.actual) for f in report.folds) == len(corpus.records)
        for fold in report.folds:
            m = fold.metrics
            assert m.mae == pytest.approx(mae(fold.actual, fold.predicted))
            assert (m.mse, m.rmse) == pytest.approx(mse(fold.actual, fold.predicted))
            assert m.mdae == pytest.approx(mdae(fold.actual, fold.predicted))
            assert m.n == len(fold.actual)
        assert set(report.aggregate) == {"mae", "mdae", "mse", "rmse"}
        for name, (mean, std) in report.aggregate.items():
            values = [getattr(f.metrics, name) for f in report.folds]
            assert mean == pytest.approx(np.mean(values))
            assert std == pytest.approx(np.std(values))  # population spread

    def test_by_project_rounds_follow_projects(self, corpus, featurizer):
        plan = leave_one_project_out(corpus)
        report = run_experiment("E1", corpus, plan, featurizer, quick_head(), seed=0)
        assert [f.label for f in report.folds] == ["proj0", "proj1", "proj2"]
        assert report.provenance["split"]["kind"] == "by-project"

    def test_same_seed_reproduces_the_report(self, corpus, featurizer):
        plan = kfold_split(corpus, k=3, seed=1)
        first = run_experiment("E1", corpus, plan, featurizer, quick_head(), seed=4)
        second = run_experiment("E1", corpus, plan, featurizer, quick_head(), seed=4)
        assert first.aggregate == second.aggregate
        for a, b in zip(first.folds, second.folds):
            np.testing.assert_array_equal(a.predicted, b.predicted)

    def test_softmax_experiment_builds_a_confusion_matrix(self, corpus, ctx_featurizer):
        plan = kfold_split(corpus, k=3, seed=0)
        report = run_experiment("E5", corpus, plan, ctx_featurizer,
                                quick_head("softmax"), seed=0)
        assert report.confusion is not None
        assert report.confusion.shape == (9, 9)
        assert report.confusion.sum() == len(corpus.records)
        rows = report.confusion_normalized
        occupied = report.confusion.sum(axis=1) > 0
        np.testing.assert_allclose(rows[occupied].sum(axis=1), 1.0, atol=1e-9)

    def test_linear_experiments_skip_the_confusion_matrix(self, corpus, featurizer):
        plan = kfold_split(corpus, k=3, seed=0)
        report = run_experiment("E1", corpus, plan, featurizer, quick_head(), seed=0)
        assert report.confusion is None

    def test_provenance_records_the_setup(self, corpus, featurizer):
        plan = kfold_split(corpus, k=3, seed=7)
        report = run_experiment("E2", corpus, plan, featurizer, quick_head(), seed=9)
        prov = report.provenance
        assert prov["experiment"] == "E2"
        assert prov["seed"] == 9
        assert prov["n_records"] == len(corpus.records)
        assert prov["split"] == {"kind": "kfold", "seed": 7, "rounds": 3}
        assert prov["embedding"]["kind"] == "static"
        assert prov["head"]["output"] == "linear"

    def test_unknown_experiment_is_rejected(self, corpus, featurizer):
        plan = kfold_split(corpus, k=3, seed=0)
        with pytest.raises(ValueError):
            run_experiment("E9", corpus, plan, featurizer, quick_head(), seed=0)

    def test_head_output_must_match_the_experiment(self, corpus, featurizer):
        plan = kfold_split(corpus, k=3, seed=0)
        with pytest.raises(ValueError):
            run_experiment("E5", corpus, plan, featurizer, quick_head("linear"), seed=0)

    def test_embedding_kind_must_match_the_experiment(self, corpus, featurizer):
        plan = kfold_split(corpus, k=3, seed=0)
        with pytest.raises(ValueError):
            run_experiment("E3", corpus, plan, featurizer, quick_head(), seed=0)

    def test_head_mode_must_match_the_featurizer(self, corpus, featurizer):
        plan = kfold_split(corpus, k=3, seed=0)
        head = HeadConfig(mode="sequence", dense_sizes=(8, 4), epochs=2,
                          patience=2, seed=0)
        with pytest.raises(ValueError):
            run_experiment("E1", corpus, plan, featurizer, head, seed=0)

    def test_fold_results_carry_training_outcomes(self, corpus, featurizer):
        plan = kfold_split(corpus, k=3, seed=0)
        report = run_experiment("E1", corpus, plan, featurizer, quick_head(), seed=0)
        for fold in report.folds:
            assert fold.best_epoch >= 0
            assert fold.stop_reason in ("patience", "epochs")
