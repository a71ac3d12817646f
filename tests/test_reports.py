"""Report writers: CSV layout, twin precision, bundle assembly."""

import json

import numpy as np
import pytest

from storypointer.corpus import corpus_stats, kfold_split, leave_one_project_out
from storypointer.experiments import run_experiment
from storypointer.features import StaticFeaturizer
from storypointer.reports import (
    emit_report,
    export_embeddings,
    file_sha256,
    write_corpus_stats,
    write_csv,
    write_fold_report,
    write_project_table,
    write_twin_csv,
)
from storypointer.static_embed import StaticTrainConfig, train_static
from storypointer.corpus import UnlabeledCorpus

from test_experiments import make_corpus, quick_head


@pytest.fixture(scope="module")
def corpus():
    return make_corpus()


@pytest.fixture(scope="module")
def featurizer(corpus):
    docs = UnlabeledCorpus(documents=[r.text for r in corpus.records])
    model = train_static(docs, StaticTrainConfig(mode="cbow", dimension=6, epochs=2, seed=0))
    return StaticFeaturizer(model, mode="pooled")


@pytest.fixture(scope="module")
def kfold_report(corpus, featurizer):
    plan = kfold_split(corpus, k=3, seed=0)
    return run_experiment("E1", corpus, plan, featurizer, quick_head(), seed=0)


@pytest.fixture(scope="module")
def project_report(corpus, featurizer):
    plan = leave_one_project_out(corpus)
    return run_experiment("E1", corpus, plan, featurizer, quick_head(), seed=0)


class TestCsvPrimitives:
    def test_display_rounds_to_two_decimals(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b"], [[1.23456, 7], ["x", 0.5]])
        assert path.read_text(encoding="utf-8") == "a,b\n1.23,7\nx,0.50\n"

    def test_raw_preserves_full_precision(self, tmp_path):
        value = 1.2345678901234567
        path = write_csv(tmp_path / "t.csv", ["a"], [[value]], raw=True)
        line = path.read_text(encoding="utf-8").splitlines()[1]
        assert float(line) == value

    def test_twin_files_share_structure(self, tmp_path):
        display, raw = write_twin_csv(tmp_path, "pair", ["x"], [[0.123], [4.567]])
        assert display.name == "pair.csv"
        assert raw.name == "pair_raw.csv"
        assert len(display.read_text().splitlines()) == len(raw.read_text().splitlines())

    def test_nan_is_written_as_text(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a"], [[float("nan")]])
        assert path.read_text().splitlines()[1] == "nan"


class TestFoldReport:
    def test_expected_files_are_written(self, kfold_report, tmp_path):
        write_fold_report(kfold_report, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "folds.csv", "folds_raw.csv", "aggregate.csv", "aggregate_raw.csv",
            "predictions_raw.csv", "provenance.json",
        }

    def test_fold_rows_match_the_report(self, kfold_report, tmp_path):
        write_fold_report(kfold_report, tmp_path)
        lines = (tmp_path / "folds_raw.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "fold,mae,mdae,mse,rmse,n,best_epoch,stop_reason"
        assert len(lines) == 1 + len(kfold_report.folds)
        first = lines[1].split(",")
        assert float(first[1]) == kfold_report.folds[0].metrics.mae

    def test_aggregate_carries_population_std(self, kfold_report, tmp_path):
        write_fold_report(kfold_report, tmp_path)
        lines = (tmp_path / "aggregate_raw.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "metric,mean,std_population"
        by_name = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        maes = [f.metrics.mae for f in kfold_report.folds]
        assert float(by_name["mae"][2]) == pytest.approx(np.std(maes), abs=1e-12)

    def test_predictions_cover_every_test_row(self, kfold_report, tmp_path):
        write_fold_report(kfold_report, tmp_path)
        lines = (tmp_path / "predictions_raw.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) - 1 == sum(len(f.actual) for f in kfold_report.folds)

    def test_provenance_embeds_the_aggregate(self, kfold_report, tmp_path):
        write_fold_report(kfold_report, tmp_path)
        info = json.loads((tmp_path / "provenance.json").read_text(encoding="utf-8"))
        assert info["experiment"] == "E1"
        assert info["aggregate"]["mae"]["mean"] == pytest.approx(
            kfold_report.aggregate["mae"][0]
        )

    def test_confusion_files_appear_for_softmax_reports(self, corpus, tmp_path):
        from storypointer.features import ContextualFeaturizer
        from storypointer.transformer import TransformerConfig, TransformerModel
        from storypointer.wordpiece import build_wordpiece_vocab

        vocab = build_wordpiece_vocab(
            UnlabeledCorpus(documents=[r.text for r in corpus.records]), size=120
        )
        config = TransformerConfig(layers=1, hidden=8, heads=2, ff=12, max_len=16,
                                   vocab_size=len(vocab), dropout=0.0, seed=0)
        featurizer = ContextualFeaturizer(TransformerModel(config, vocab), mode="pooled")
        plan = kfold_split(corpus, k=3, seed=0)
        report = run_experiment("E5", corpus, plan, featurizer,
                                quick_head("softmax"), seed=0)
        write_fold_report(report, tmp_path)
        header = (tmp_path / "confusion.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "actual\\predicted,1,2,3,5,8,13,20,40,100"
        counts = np.array([
            [int(v) for v in line.split(",")[1:]]
            for line in (tmp_path / "confusion.csv").read_text().splitlines()[1:]
        ])
        assert counts.sum() == len(corpus.records)
        assert (tmp_path / "confusion_normalized_raw.csv").exists()


class TestComparison:
    def test_one_row_per_experiment_sorted(self, kfold_report, tmp_path):
        import dataclasses

        run = tmp_path / "run"
        other = dataclasses.replace(
            kfold_report, provenance={**kfold_report.provenance, "experiment": "E2"})
        write_fold_report(other, run / "a")  # directory order differs from experiment order
        write_fold_report(kfold_report, run / "b")
        lines = (emit_report(run) / "comparison.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model,mae,mae_std,mse,mse_std,mdae,mdae_std"
        assert [line.split(",")[0] for line in lines[1:]] == ["E1", "E2"]


class TestProjectTable:
    def test_rows_summarize_each_project(self, corpus, project_report, tmp_path):
        write_project_table(corpus, project_report, tmp_path)
        lines = (tmp_path / "per_project_raw.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "project,n_requirements,effort_mean,effort_std,mae"
        assert len(lines) == 1 + 3 + 1  # header, three projects, the average
        first = lines[1].split(",")
        assert first[0] == "proj0"
        assert int(first[1]) == 12
        efforts = [r.effort for r in corpus.records if r.project == "proj0"]
        assert float(first[2]) == pytest.approx(np.mean(efforts))
        assert float(first[3]) == pytest.approx(np.std(efforts))

    def test_last_row_averages_the_mae(self, corpus, project_report, tmp_path):
        write_project_table(corpus, project_report, tmp_path)
        lines = (tmp_path / "per_project_raw.csv").read_text(encoding="utf-8").splitlines()
        last = lines[-1].split(",")
        assert last[0] == "avg"
        maes = [f.metrics.mae for f in project_report.folds]
        assert float(last[-1]) == pytest.approx(np.mean(maes))

    def test_kfold_reports_are_rejected(self, corpus, kfold_report, tmp_path):
        with pytest.raises(ValueError):
            write_project_table(corpus, kfold_report, tmp_path)


class TestCorpusStats:
    def test_summary_row_matches_the_stats(self, corpus, tmp_path):
        stats = corpus_stats(corpus)
        write_corpus_stats(stats, tmp_path)
        lines = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
        row = lines[1].split(",")
        assert int(row[0]) == stats.n_records
        assert int(row[1]) == stats.n_projects
        assert (tmp_path / "words_hist.csv").exists()
        assert (tmp_path / "effort_hist.csv").exists()


class TestEmbeddingExport:
    def test_one_row_per_id(self, tmp_path):
        matrix = np.arange(6, dtype=np.float64).reshape(2, 3)
        path = export_embeddings(tmp_path / "emb.csv", ["a", "b"], matrix)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,dim0,dim1,dim2"
        assert lines[1].startswith("a,")
        assert float(lines[2].split(",")[3]) == 5.0

    def test_mismatched_lengths_are_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_embeddings(tmp_path / "emb.csv", ["only-one"], np.zeros((2, 2)))


class TestBundle:
    def test_bundle_collects_each_evaluation(self, kfold_report, project_report, corpus, tmp_path):
        run = tmp_path / "run"
        write_fold_report(kfold_report, run / "E1")
        write_fold_report(project_report, run / "E1-by-project")
        bundle = emit_report(run)
        assert bundle == run / "bundle"
        assert (bundle / "E1" / "folds.csv").exists()
        assert (bundle / "E1-by-project" / "aggregate_raw.csv").exists()
        manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
        assert {e["name"] for e in manifest["evaluations"]} == {"E1", "E1-by-project"}
        assert isinstance(manifest["generated_unix"], int)
        assert any("seed" in s for s in manifest["seeds"])
        comparison = (bundle / "comparison.csv").read_text(encoding="utf-8").splitlines()
        assert comparison[0] == "model,mae,mae_std,mse,mse_std,mdae,mdae_std"
        assert len(comparison) == 3  # header plus both evaluations

    def test_empty_run_directory_is_an_error(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(tmp_path)

    def test_explicit_output_directory_is_honored(self, kfold_report, tmp_path):
        run = tmp_path / "run"
        write_fold_report(kfold_report, run / "E1")
        bundle = emit_report(run, out_dir=tmp_path / "dist")
        assert bundle == tmp_path / "dist"
        assert (bundle / "manifest.json").exists()


class TestHashing:
    def test_sha256_matches_the_stdlib(self, tmp_path):
        import hashlib

        path = tmp_path / "blob.bin"
        path.write_bytes(b"story points" * 1000)
        assert file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
