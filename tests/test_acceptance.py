"""Release gate: one test per shipping criterion, one verdict line each.

Every test prints "criterion N (name): PASS/FAIL (detail)" so a plain
`pytest -v` run of this file reads as a checklist. The two dataset
criteria skip with an explanation when the published corpus is absent.
"""

import json
import math
import os
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from storypointer.corpus import (
    LabeledCorpus,
    RequirementRecord,
    UnlabeledCorpus,
    bucketize,
    corpus_stats,
    kfold_split,
    leave_one_project_out,
    load_labeled,
)
from storypointer.estimator import EstimatorModel, HeadConfig, train_estimator
from storypointer.kernel import LSTM, Dense, RngStream, Tensor, cross_entropy, mse_loss
from storypointer.lm_training import batch_loss, evaluate_pretraining, pretrain
from storypointer.metrics import mae, mdae, mse
from storypointer.pretrain_data import PretrainExample, create_pretraining_data
from storypointer.static_embed import StaticTrainConfig, cosine, train_static
from storypointer.transformer import TransformerConfig, TransformerModel
from storypointer.wordpiece import CLS_ID, PAD_ID, SEP_ID, build_wordpiece_vocab

from gradcheck import grad_check

DATASET = Path(os.environ.get("SE3M_DATA_DIR", "")) / "storypoints.csv"


def verdict(number: int, name: str, passed: bool, detail: str) -> None:
    line = f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def ten_word_documents(n_docs=12, n_sentences=6):
    """Sentences of exactly ten distinct words, so a sentence pair offers
    twenty maskable positions and the rounded mask count tracks the rate."""
    pool = [
        "query", "index", "table", "join", "schema", "rows", "column", "merge",
        "backup", "shard", "cache", "log", "deploy", "release", "build", "stage",
        "server", "patch", "monitor", "alert", "ticket", "sprint", "board", "epic",
    ]
    docs = []
    for d in range(n_docs):
        sentences = []
        for s in range(n_sentences):
            words = [pool[(d * 7 + s * 3 + k) % len(pool)] for k in range(10)]
            sentences.append(" ".join(words))
        docs.append(". ".join(sentences))
    return UnlabeledCorpus(documents=docs)


class TestCriterion1:
    def test_gradient_fidelity(self):
        start = time.monotonic()
        rng = RngStream(42)
        worst = {}

        dense = Dense(rng.child("dense"), 4, 3, activation="tanh")
        x = rng.uniform(-0.5, 0.5, (5, 4))
        target = rng.uniform(-0.5, 0.5, (5, 3))
        worst["dense"] = grad_check(
            lambda: mse_loss(dense(Tensor(x)), target), dense.parameters(), h=1e-5,
        ).max_rel_error

        clf = Dense(rng.child("clf"), 5, 4)
        cx = rng.uniform(-0.5, 0.5, (6, 5))
        labels = np.array([0, 1, 2, 3, 1, 2])
        worst["softmax"] = grad_check(
            lambda: cross_entropy(clf(Tensor(cx)), labels), clf.parameters(), h=1e-5,
        ).max_rel_error

        cell = LSTM(rng.child("lstm"), 3, 4)
        lx = rng.uniform(-0.5, 0.5, (2, 3, 3))  # three timesteps
        ltarget = rng.uniform(-0.5, 0.5, (2, 4))
        worst["lstm"] = grad_check(
            lambda: mse_loss(cell(Tensor(lx)), ltarget), cell.parameters(), h=1e-5,
        ).max_rel_error

        vocab = build_wordpiece_vocab(
            UnlabeledCorpus(documents=["aa bb", "cc dd", "aa cc"]), size=16
        )
        config = TransformerConfig(layers=1, hidden=8, heads=2, ff=16, max_len=4,
                                   vocab_size=len(vocab), dropout=0.0, seed=0)
        model = TransformerModel(config, vocab)
        real = [i for i in range(5, len(vocab))]
        example = PretrainExample(
            token_ids=(CLS_ID, real[0], real[1], SEP_ID),
            segment_ids=(0, 0, 0, 0),
            masked_positions=(1,),
            masked_labels=(real[2],),
            is_next=True,
        )
        worst["transformer"] = grad_check(
            lambda: batch_loss(model, [example])[0], model.params, h=1e-5,
        ).max_rel_error

        elapsed = time.monotonic() - start
        ok = (
            worst["dense"] < 1e-4 and worst["softmax"] < 1e-4
            and worst["lstm"] < 1e-4 and worst["transformer"] < 1e-3
            and elapsed < 120.0
        )
        verdict(
            1, "gradient fidelity", ok,
            f"max rel err dense={worst['dense']:.2e} softmax={worst['softmax']:.2e} "
            f"lstm={worst['lstm']:.2e} transformer={worst['transformer']:.2e}, "
            f"{elapsed:.1f}s",
        )


class TestCriterion2:
    def test_metric_oracle_equivalence(self):
        start = time.monotonic()
        rng = np.random.default_rng(0)
        worst_gap = 0.0
        mae_le_rmse = True
        for _ in range(100):
            n = int(rng.integers(1, 1001))
            actual = rng.uniform(1.0, 100.0, n)
            predicted = rng.uniform(1.0, 100.0, n)

            abs_errors = [abs(float(a) - float(p)) for a, p in zip(actual, predicted)]
            brute_mae = sum(abs_errors) / n
            brute_mdae = statistics.median(abs_errors)
            brute_mse = sum(e * e for e in abs_errors) / n

            got_mse, got_rmse = mse(actual, predicted)
            worst_gap = max(
                worst_gap,
                abs(mae(actual, predicted) - brute_mae),
                abs(mdae(actual, predicted) - brute_mdae),
                abs(got_mse - brute_mse),
                abs(got_rmse - math.sqrt(brute_mse)),
            )
            if mae(actual, predicted) > got_rmse + 1e-12:
                mae_le_rmse = False
        elapsed = time.monotonic() - start
        ok = worst_gap < 1e-9 and mae_le_rmse and elapsed < 10.0
        verdict(
            2, "metric oracle equivalence", ok,
            f"worst deviation {worst_gap:.2e} over 100 samples, "
            f"mae<=rmse {'held' if mae_le_rmse else 'VIOLATED'}, {elapsed:.1f}s",
        )


class TestCriterion3:
    def test_masking_statistics(self):
        start = time.monotonic()
        corpus = ten_word_documents()
        vocab = build_wordpiece_vocab(corpus, size=240)
        examples = create_pretraining_data(
            corpus, vocab, mask_rate=0.15, seed=0, max_len=32, n_examples=10_000
        )
        masked = sum(len(e.masked_positions) for e in examples)
        maskable = sum(e.maskable_count for e in examples)
        fraction = masked / maskable
        true_next = sum(1 for e in examples if e.is_next) / len(examples)
        masked_specials = sum(
            1 for e in examples for label in e.masked_labels if label < 5
        )
        elapsed = time.monotonic() - start
        ok = (
            len(examples) == 10_000
            and 0.13 <= fraction <= 0.17
            and 0.48 <= true_next <= 0.52
            and masked_specials == 0
            and elapsed < 60.0
        )
        verdict(
            3, "masking statistics", ok,
            f"masked fraction {fraction:.4f}, true-next {true_next:.4f}, "
            f"masked specials {masked_specials}, {elapsed:.1f}s",
        )


class TestCriterion4:
    def test_attention_mask_correctness(self):
        start = time.monotonic()
        corpus = ten_word_documents(n_docs=4, n_sentences=3)
        vocab = build_wordpiece_vocab(corpus, size=120)
        config = TransformerConfig(layers=2, hidden=32, heads=4, ff=48, max_len=24,
                                   vocab_size=len(vocab), dropout=0.0, seed=3)
        model = TransformerModel(config, vocab)
        rng = RngStream(17)
        worst = 0.0
        for _ in range(50):
            n_real = int(rng.integers(2, 9))
            body = [int(rng.integers(5, len(vocab))) for _ in range(n_real)]
            ids = [CLS_ID] + body + [SEP_ID]
            n_pads = int(rng.integers(3, 9))
            short = np.array([ids], dtype=np.int64)
            padded = np.array([ids + [PAD_ID] * n_pads], dtype=np.int64)
            out_short = model.encode(short)
            out_padded = model.encode(padded)
            for a, b in zip(out_short, out_padded):
                gap = np.abs(a.numpy() - b.numpy()[:, : len(ids), :]).max()
                worst = max(worst, float(gap))
        elapsed = time.monotonic() - start
        ok = worst <= 1e-6 and elapsed < 30.0
        verdict(
            4, "attention-mask correctness", ok,
            f"max real-token drift {worst:.2e} over 50 padded inputs, {elapsed:.1f}s",
        )


class TestCriterion5:
    def contrast_corpus(self, n_sentences=50):
        tech = ["query", "index", "table", "join", "schema", "rows",
                "column", "merge", "backup", "shard", "cache", "log"]
        pets = ["park", "leash", "bone", "nap", "tail", "fur",
                "walk", "fetch", "collar", "vet", "treat", "bark"]
        docs = []
        for i in range(n_sentences):
            if i % 2 == 0:
                fill = [tech[(i * 3 + j) % 12] for j in range(6)]
                docs.append("db sql " + " ".join(fill))
            else:
                fill = [pets[(i * 5 + j) % 12] for j in range(6)]
                docs.append("cat dog " + " ".join(fill))
        return UnlabeledCorpus(documents=docs)

    def test_desk_scale_learning_signals(self):
        start = time.monotonic()

        static = train_static(
            self.contrast_corpus(),
            StaticTrainConfig(mode="cbow", dimension=32, window=5, negatives=5,
                              epochs=200, learning_rate=0.005, seed=0),
        )
        near = cosine(static, "db", "sql")
        far = cosine(static, "db", "cat")
        contrast_ok = near > far

        corpus = ten_word_documents(n_docs=25, n_sentences=8)  # 200 sentences
        vocab = build_wordpiece_vocab(corpus, size=240)
        config = TransformerConfig(layers=2, hidden=32, heads=2, ff=64, max_len=24,
                                   vocab_size=len(vocab), dropout=0.0, seed=0)
        model = TransformerModel(config, vocab)
        examples = create_pretraining_data(corpus, vocab, seed=0, max_len=24,
                                           n_examples=200)
        _, initial_mlm, _ = evaluate_pretraining(model, examples)
        pretrain(model, examples, epochs=20, batch_size=32, seed=0)
        _, final_mlm, _ = evaluate_pretraining(model, examples)
        mlm_ok = final_mlm <= 0.7 * initial_mlm

        rng = RngStream(5).child("memorize")
        vectors = rng.normal(0.0, 1.0, (32, 8))
        efforts = np.round(rng.uniform(1.0, 21.0, 32), 1)
        from storypointer.features import FeatureBatch

        batch = FeatureBatch(mode="pooled", vectors=vectors,
                             mask=np.ones(32), degenerate=np.zeros(32, dtype=bool))
        head = HeadConfig(mode="pooled", dense_sizes=(32, 16), output="linear",
                          epochs=300, patience=300, batch_size=32,
                          learning_rate=0.01, seed=0)
        estimator = EstimatorModel(head, input_dim=8)
        history = train_estimator(estimator, batch, efforts, batch, efforts)
        memorize_ok = history.best_val_mae < 0.5

        elapsed = time.monotonic() - start
        ok = contrast_ok and mlm_ok and memorize_ok and elapsed < 600.0
        verdict(
            5, "desk-scale learning", ok,
            f"cosine {near:.3f} vs {far:.3f}, "
            f"mlm {initial_mlm:.3f} -> {final_mlm:.3f} "
            f"(target <= {0.7 * initial_mlm:.3f}), "
            f"memorization MAE {history.best_val_mae:.3f}, {elapsed:.1f}s",
        )


class TestCriterion6:
    def test_experiment_determinism(self, tmp_path):
        from storypointer.cli import main
        from test_cli import write_corpus_csv

        corpus = write_corpus_csv(tmp_path / "stories.csv")
        static_out = tmp_path / "static"
        assert main(["pretrain-static", "--corpus", str(corpus),
                     "--out", str(static_out), "--dimension", "6",
                     "--epochs", "1"]) == 0
        args = ["evaluate", "--corpus", str(corpus), "--experiment", "E1",
                "--embedding", str(static_out / "static.ckpt"),
                "--kfold", "3", "--mode", "pooled", "--epochs", "2", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0

        first = sorted((tmp_path / "r1").rglob("*"))
        differing = []
        for path in first:
            if path.is_dir():
                continue
            twin = tmp_path / "r2" / path.relative_to(tmp_path / "r1")
            if path.read_bytes() != twin.read_bytes():
                differing.append(path.name)
        n_files = sum(1 for p in first if p.is_file())
        ok = n_files > 0 and not differing
        verdict(
            6, "determinism", ok,
            f"{n_files} artifacts byte-identical across reruns"
            + (f"; differing: {differing}" if differing else ""),
        )


class TestCriterion7:
    def test_split_plan_properties(self):
        records = [
            RequirementRecord(id=f"r{i}", project=f"p{i % 9}", raw_text="x",
                              text="x", effort=1.0, degenerate=False)
            for i in range(23_313)
        ]
        corpus = LabeledCorpus(records=records)
        plan = kfold_split(corpus, k=10, seed=0)
        sizes = Counter(Counter(plan.fold_of.values()).values())
        kfold_ok = (
            sizes == Counter({2331: 7, 2332: 3})
            and set(plan.fold_of) == {r.id for r in records}
        )

        small = LabeledCorpus(records=records[:400])
        lopo = leave_one_project_out(small)
        seen = []
        partition_ok = True
        for label, train, test in lopo.rounds(small):
            if {r.project for r in test} != {label}:
                partition_ok = False
            if any(r.project == label for r in train):
                partition_ok = False
            if len(train) + len(test) != len(small.records):
                partition_ok = False
            seen.extend(r.id for r in test)
        partition_ok = partition_ok and sorted(seen) == sorted(r.id for r in small.records)

        ok = kfold_ok and partition_ok
        verdict(
            7, "split-plan properties", ok,
            f"10-fold sizes {dict(sizes)}, leave-one-project-out "
            f"{'partitions exactly' if partition_ok else 'BROKEN'}",
        )


@pytest.mark.skipif(
    not DATASET.exists(),
    reason="published dataset not present (expected at $SE3M_DATA_DIR/storypoints.csv)",
)
class TestCriterion8:
    def test_dataset_bucket_counts(self):
        start = time.monotonic()
        corpus = load_labeled(DATASET)
        counts = Counter(bucketize(r.effort) for r in corpus.records)
        expected = dict(zip((1, 2, 3, 5, 8, 13, 20, 40, 100),
                            (4225, 3406, 4809, 4725, 3588, 1238, 706, 451, 165)))
        stats = corpus_stats(corpus)
        elapsed = time.monotonic() - start
        ok = dict(counts) == expected and abs(stats.words_mean - 53.0) <= 2.0 and elapsed < 300.0
        verdict(
            8, "published-dataset shape", ok,
            f"bucket counts {'match' if dict(counts) == expected else dict(counts)}, "
            f"mean words/text {stats.words_mean:.2f}, {elapsed:.1f}s",
        )


@pytest.mark.skipif(
    not (DATASET.exists() and os.environ.get("SE3M_RUN_FULL") == "1"),
    reason="needs the published dataset and SE3M_RUN_FULL=1 (multi-hour run)",
)
class TestCriterion9:
    def test_finetuning_improves_both_embedding_kinds(self, tmp_path):
        from storypointer.experiments import run_experiment
        from storypointer.features import ContextualFeaturizer, StaticFeaturizer
        from storypointer.lm_training import finetune_lm
        from storypointer.static_embed import finetune_static

        start = time.monotonic()
        corpus = load_labeled(DATASET)
        documents = UnlabeledCorpus(documents=[r.text for r in corpus.records if not r.degenerate])
        plan = kfold_split(corpus, k=10, seed=0)
        head = HeadConfig(mode="pooled")

        def score(featurizer, experiment):
            report = run_experiment(experiment, corpus, plan, featurizer,
                                    HeadConfig(mode="pooled",
                                               output="softmax" if experiment == "E5" else "linear"),
                                    seed=0)
            return report.aggregate["mae"][0]

        base_static = train_static(documents, StaticTrainConfig(mode="cbow", dimension=100, seed=0))
        tuned_static = finetune_static(base_static, documents, extra_epochs=2, seed=0)
        e1 = score(StaticFeaturizer(base_static, mode="pooled"), "E1")
        e2 = score(StaticFeaturizer(tuned_static, mode="pooled"), "E2")

        vocab = build_wordpiece_vocab(documents, size=2000)
        config = TransformerConfig(layers=4, hidden=128, heads=4, ff=512, max_len=100,
                                   vocab_size=len(vocab), seed=0)
        base_ctx = TransformerModel(config, vocab)
        examples = create_pretraining_data(documents, vocab, seed=0)
        pretrain(base_ctx, examples, epochs=2, seed=0)
        e3 = score(ContextualFeaturizer(base_ctx, mode="pooled"), "E3")
        tuned_ctx = TransformerModel(config, vocab, params={
            name: t.numpy().copy() for name, t in base_ctx.params.items()
        })
        finetune_lm(tuned_ctx, documents, epochs=2, seed=1)
        e4 = score(ContextualFeaturizer(tuned_ctx, mode="pooled"), "E4")

        elapsed = time.monotonic() - start
        ok = e2 < e1 and e4 < e3
        verdict(
            9, "fine-tuning ordering", ok,
            f"static MAE {e1:.2f} -> {e2:.2f}, contextual MAE {e3:.2f} -> {e4:.2f}, "
            f"{elapsed / 3600:.1f}h",
        )
