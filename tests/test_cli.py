"""Command-line interface: exit codes, config merging, artifact layout."""

import csv
import json
import struct
from pathlib import Path

import pytest

from storypointer.cli import main

VERBS = ["add", "fix", "migrate", "update", "refactor", "support"]
NOUNS = ["login form", "billing export", "search index", "report cache",
         "user import", "cart checkout"]


def write_corpus_csv(path: Path, n=30, n_projects=3) -> Path:
    efforts = [1, 2, 3, 5, 8]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["issuekey", "project", "title", "description", "storypoint"])
        for i in range(n):
            writer.writerow([
                f"REQ-{i:03d}",
                f"proj{i % n_projects}",
                f"{VERBS[i % 6]} {NOUNS[(i * 5) % 6]}",
                f"as a user i want to {VERBS[(i + 2) % 6]} the {NOUNS[(i + 1) % 6]} "
                f"so that work item {i} is done",
                str(efforts[i % 5]),
            ])
    return path


@pytest.fixture()
def corpus_csv(tmp_path):
    return write_corpus_csv(tmp_path / "stories.csv")


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_returns_zero(self, corpus_csv, tmp_path, capsys):
        code, out, _ = run(["stats", "--corpus", corpus_csv, "--out", tmp_path / "s"], capsys)
        assert code == 0
        assert "30 records" in out

    def test_command_failure_returns_one(self, tmp_path, capsys):
        code, _, err = run(["stats", "--corpus", tmp_path / "missing.csv",
                            "--out", tmp_path / "s"], capsys)
        assert code == 1
        assert "missing.csv" in err

    def test_usage_error_returns_two(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["stats", "--no-such-flag"])
        assert caught.value.code == 2

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["transmogrify"])
        assert caught.value.code == 2

    def test_missing_required_flag_returns_one(self, tmp_path, capsys):
        code, _, err = run(["stats", "--out", tmp_path / "s"], capsys)
        assert code == 1
        assert "--corpus" in err


class TestIngest:
    def test_writes_jsonl_and_reports_counts(self, corpus_csv, tmp_path, capsys):
        out = tmp_path / "ingested"
        code, text, _ = run(["ingest", "--corpus", corpus_csv, "--out", out], capsys)
        assert code == 0
        lines = (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 30
        first = json.loads(lines[0])
        assert set(first) == {"id", "project", "text", "effort"}

    def test_bad_rows_go_to_rejections(self, tmp_path, capsys):
        path = write_corpus_csv(tmp_path / "stories.csv", n=10)
        with open(path, "a", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(["REQ-BAD", "proj0", "broken", "row", "not-a-number"])
        out = tmp_path / "ingested"
        code, _, _ = run(["ingest", "--corpus", path, "--out", out], capsys)
        assert code == 0
        assert "not-a-number" in (out / "rejections.txt").read_text(encoding="utf-8")
        assert len((out / "corpus.jsonl").read_text().splitlines()) == 10

    def test_jsonl_roundtrips_through_ingest(self, corpus_csv, tmp_path, capsys):
        first = tmp_path / "first"
        run(["ingest", "--corpus", corpus_csv, "--out", first], capsys)
        second = tmp_path / "second"
        code, _, _ = run(["ingest", "--corpus", first / "corpus.jsonl", "--out", second], capsys)
        assert code == 0
        assert (second / "corpus.jsonl").read_bytes() == (first / "corpus.jsonl").read_bytes()


class TestConfigMerging:
    def test_config_file_supplies_defaults(self, corpus_csv, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"corpus = {corpus_csv}\n"
            "# comment lines are skipped\n"
            "dimension = 7\n",
            encoding="utf-8",
        )
        out = tmp_path / "static"
        code, text, _ = run(["pretrain-static", "--config", config, "--out", out,
                             "--epochs", "1"], capsys)
        assert code == 0
        assert "d=7" in text or "dimension 7" in text.lower() or (out / "static.ckpt").exists()

    def test_flags_beat_the_config_file(self, corpus_csv, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"corpus = {corpus_csv}\nseed = 1\nout = {tmp_path / 'a'}\n",
                          encoding="utf-8")
        code, _, _ = run(["stats", "--config", config, "--out", tmp_path / "b"], capsys)
        assert code == 0
        assert (tmp_path / "b" / "summary.csv").exists()
        assert not (tmp_path / "a").exists()

    def test_unknown_config_keys_fail_fast(self, corpus_csv, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"corpus = {corpus_csv}\nwarp_speed = 9\n", encoding="utf-8")
        code, _, err = run(["stats", "--config", config, "--out", tmp_path / "s"], capsys)
        assert code == 1
        assert "warp_speed" in err

    def test_malformed_config_lines_fail_fast(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("just a dangling phrase\n", encoding="utf-8")
        code, _, err = run(["stats", "--config", config, "--out", tmp_path / "s"], capsys)
        assert code == 1

    def test_data_dir_resolves_relative_corpus_paths(self, corpus_csv, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.setenv("SE3M_DATA_DIR", str(corpus_csv.parent))
        code, out, _ = run(["stats", "--corpus", "stories.csv", "--out", tmp_path / "s"], capsys)
        assert code == 0
        assert "30 records" in out


class TestPipelineArtifacts:
    def test_static_pretrain_then_train_then_predict(self, corpus_csv, tmp_path, capsys):
        static_out = tmp_path / "static"
        code, _, _ = run(["pretrain-static", "--corpus", corpus_csv, "--out", static_out,
                          "--dimension", "6", "--epochs", "1"], capsys)
        assert code == 0
        checkpoint = static_out / "static.ckpt"
        assert checkpoint.exists()

        model_out = tmp_path / "model"
        code, _, _ = run(["train", "--corpus", corpus_csv, "--embedding", checkpoint,
                          "--out", model_out, "--mode", "pooled", "--epochs", "2"], capsys)
        assert code == 0
        assert (model_out / "estimator.ckpt").exists()
        history = json.loads((model_out / "history.json").read_text(encoding="utf-8"))
        assert "val_mae" in history

        code, out, _ = run(["predict", "--model", model_out / "estimator.ckpt",
                            "--embedding", checkpoint,
                            "--text", "fix the billing export"], capsys)
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert set(payload) == {"effort", "class", "model_id", "degenerate"}
        assert 1.0 <= payload["effort"] <= 100.0

    def test_evaluate_writes_fold_outputs(self, corpus_csv, tmp_path, capsys):
        static_out = tmp_path / "static"
        run(["pretrain-static", "--corpus", corpus_csv, "--out", static_out,
             "--dimension", "6", "--epochs", "1"], capsys)
        eval_out = tmp_path / "eval"
        code, _, _ = run(["evaluate", "--corpus", corpus_csv, "--experiment", "E1",
                          "--embedding", static_out / "static.ckpt", "--out", eval_out,
                          "--kfold", "3", "--mode", "pooled", "--epochs", "2"], capsys)
        assert code == 0
        produced = {p.name for p in (eval_out / "E1").iterdir()}
        assert {"folds.csv", "aggregate.csv", "predictions_raw.csv",
                "provenance.json"} <= produced
        info = json.loads((eval_out / "E1" / "provenance.json").read_text(encoding="utf-8"))
        assert info["split"] == {"kind": "kfold", "seed": 0, "rounds": 3}
        assert len(info["corpus_sha256"]) == 64

    def test_repeated_evaluation_is_byte_identical(self, corpus_csv, tmp_path, capsys):
        static_out = tmp_path / "static"
        run(["pretrain-static", "--corpus", corpus_csv, "--out", static_out,
             "--dimension", "6", "--epochs", "1"], capsys)
        args = ["evaluate", "--corpus", corpus_csv, "--experiment", "E1",
                "--embedding", static_out / "static.ckpt",
                "--kfold", "3", "--mode", "pooled", "--epochs", "2", "--seed", "7"]
        run(args + ["--out", tmp_path / "r1"], capsys)
        run(args + ["--out", tmp_path / "r2"], capsys)
        for name in ["folds_raw.csv", "aggregate_raw.csv", "predictions_raw.csv",
                     "provenance.json"]:
            a = (tmp_path / "r1" / "E1" / name).read_bytes()
            b = (tmp_path / "r2" / "E1" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_report_bundles_evaluations(self, corpus_csv, tmp_path, capsys):
        static_out = tmp_path / "static"
        run(["pretrain-static", "--corpus", corpus_csv, "--out", static_out,
             "--dimension", "6", "--epochs", "1"], capsys)
        eval_out = tmp_path / "run"
        run(["evaluate", "--corpus", corpus_csv, "--experiment", "E1",
             "--embedding", static_out / "static.ckpt", "--out", eval_out,
             "--kfold", "3", "--mode", "pooled", "--epochs", "2"], capsys)
        code, _, _ = run(["report", "--run", eval_out], capsys)
        assert code == 0
        bundle = eval_out / "bundle"
        assert (bundle / "manifest.json").exists()
        assert (bundle / "comparison.csv").exists()

    def test_evaluate_by_project_writes_the_project_table(self, corpus_csv, tmp_path, capsys):
        static_out = tmp_path / "static"
        run(["pretrain-static", "--corpus", corpus_csv, "--out", static_out,
             "--dimension", "6", "--epochs", "1"], capsys)
        eval_out = tmp_path / "eval"
        code, _, _ = run(["evaluate", "--corpus", corpus_csv, "--experiment", "E1",
                          "--embedding", static_out / "static.ckpt", "--out", eval_out,
                          "--by-project", "--mode", "pooled", "--epochs", "2"], capsys)
        assert code == 0
        table = (eval_out / "E1" / "per_project.csv").read_text(encoding="utf-8")
        assert table.splitlines()[0] == "project,n_requirements,effort_mean,effort_std,mae"
        assert table.splitlines()[-1].startswith("avg,")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A corpus with a static embedding, an encoder and an estimator trained on it."""
    root = tmp_path_factory.mktemp("trained")
    corpus = write_corpus_csv(root / "stories.csv")
    docs = root / "docs.txt"
    docs.write_text("fix the billing export. add a login form.\n"
                    "migrate the search index. update the report cache.\n", encoding="utf-8")
    for argv in (
        ["pretrain-static", "--corpus", corpus, "--dimension", "6", "--epochs", "1"],
        ["pretrain-ctx", "--unlabeled", docs, "--layers", "1", "--hidden", "8", "--heads", "2",
         "--ff", "8", "--vocab-size", "80", "--epochs", "1", "--n-examples", "4"],
        ["train", "--corpus", corpus, "--embedding", root / "static.ckpt",
         "--mode", "pooled", "--epochs", "2"],
    ):
        assert main([str(a) for a in argv] + ["--out", str(root)]) == 0
    return root


def damaged(blob: bytes, flaw: str) -> bytes:
    if flaw == "truncated":
        return blob[: len(blob) // 2]
    if flaw == "ten-bytes":
        return blob[:10]
    # unknown-dtype: the same container with its first parameter declared int8
    (length,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + length])
    header["params"][0]["dtype"] = "int8"
    new = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + length:]


# (command, checkpoint flag, checkpoint the flag expects, the other arguments)
CHECKPOINT_SLOTS = [
    ("finetune-static", "--model", "static", ["--unlabeled", "docs.txt"]),
    ("finetune-ctx", "--model", "encoder", ["--unlabeled", "docs.txt"]),
    ("embed", "--model", "static", ["--corpus", "stories.csv"]),
    ("train", "--embedding", "encoder", ["--corpus", "stories.csv", "--mode", "pooled"]),
    ("evaluate", "--embedding", "static",
     ["--corpus", "stories.csv", "--experiment", "E1", "--mode", "pooled"]),
    ("predict", "--model", "estimator", ["--embedding", "static.ckpt", "--text", "fix it"]),
    ("predict", "--embedding", "static", ["--model", "estimator.ckpt", "--text", "fix it"]),
    ("serve", "--model", "estimator", ["--embedding", "static.ckpt", "--bind", "127.0.0.1:0"]),
    ("serve", "--embedding", "encoder", ["--model", "estimator.ckpt", "--bind", "127.0.0.1:0"]),
]


class TestCheckpointErrors:
    @pytest.mark.parametrize("flaw", ["missing", "truncated", "ten-bytes", "unknown-dtype",
                                      "wrong-kind"])
    @pytest.mark.parametrize("command,flag,expects,rest", CHECKPOINT_SLOTS,
                             ids=[c + f for c, f, _, _ in CHECKPOINT_SLOTS])
    def test_bad_checkpoint_is_one_error_line(self, trained, tmp_path, capsys, monkeypatch,
                                              command, flag, expects, rest, flaw):
        def never(*args, **kwargs):
            raise AssertionError("the server must not start on a bad checkpoint")

        monkeypatch.setattr("storypointer.cli.serve_forever", never)
        bad = tmp_path / "bad.ckpt"
        if flaw == "wrong-kind":
            other = "static" if expects == "estimator" else "estimator"
            bad.write_bytes((trained / f"{other}.ckpt").read_bytes())
        elif flaw != "missing":
            bad.write_bytes(damaged((trained / f"{expects}.ckpt").read_bytes(), flaw))
        argv = [command, flag, bad, "--out", tmp_path / "out"]
        argv += [trained / a if a.endswith((".txt", ".csv", ".ckpt")) else a for a in rest]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "bad.ckpt" in err

    def test_missing_unlabeled_file_is_one_error_line(self, trained, tmp_path, capsys):
        code, _, err = run(["finetune-static", "--model", trained / "static.ckpt",
                            "--unlabeled", tmp_path / "missing.txt", "--out", tmp_path], capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.txt" in err
