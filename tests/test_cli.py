"""Command-line interface: exit codes, config merging, artifact layout."""

import argparse
import csv
import dataclasses
import json
import os
import platform
import re
import signal
import struct
import subprocess
import sys
import types
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest

from storypointer import cli
from storypointer.cli import build_parser, main
from storypointer.estimator import TrainHistory
from storypointer.kernel import parameter
from storypointer.kernel.checkpoint import load_checkpoint, save_checkpoint
from storypointer.static_embed import load_static, save_static
from storypointer.transformer import load_transformer

from test_kernel import rewrite_header

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

    @pytest.mark.parametrize("argv", [
        ["pretrain-static", "--batch-size", "8"],
        ["finetune-static", "--batch-size", "8"],
        ["finetune-static", "--lr", "0.5"],
    ])
    def test_static_commands_take_no_flags_they_would_ignore(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
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

    @pytest.mark.parametrize("before, line", [
        ("", 1),
        ('issuekey,project,title,description,storypoint\nREQ-001,proj0,fix,"two\nlines",3\n', 4),
    ], ids=["in-the-header", "after-a-two-line-record"])
    def test_field_over_the_csv_limit_is_one_error_line(self, tmp_path, capsys, before, line):
        path = tmp_path / "huge.csv"
        path.write_text(before + "REQ-002,proj0,fix," + "x" * 200_000 + ",5\n", encoding="utf-8")
        out = tmp_path / "ingested"
        code, text, err = run(["ingest", "--corpus", path, "--out", out], capsys)
        assert (code, text) == (1, "")
        assert err == (f"error: cannot load corpus: {path}:{line}: unreadable CSV: "
                       "field larger than field limit (131072)\n")
        assert not out.exists()


# a file of each kind the CLI reads as text, longer than one 8 KiB read:
# its name, its valid lines, the command that reads it and the words its
# error line starts with
TEXT_INPUTS = {
    "config": ("run.cfg", lambda tmp: "seed = 1\n" * 1000,
               ["stats", "--corpus", "{corpus}", "--config", "{file}"], "cannot read config file"),
    "csv": ("stories.csv", lambda tmp: write_corpus_csv(tmp / "good.csv", n=400).read_text("utf-8"),
            ["ingest", "--corpus", "{file}"], "cannot load corpus"),
    "jsonl": ("stories.jsonl", lambda tmp: "".join(
        json.dumps({"id": f"REQ-{i}", "project": "proj0", "text": "fix the login form",
                    "effort": 3}) + "\n" for i in range(400)),
              ["ingest", "--corpus", "{file}"], "cannot load corpus"),
    "unlabeled": ("docs.txt", lambda tmp: "fix the login form\n" * 1000,
                  ["pretrain-static", "--unlabeled", "{file}"], "cannot load unlabeled corpus"),
}


class TestNonUtf8Input:
    @pytest.mark.parametrize("kind", sorted(TEXT_INPUTS))
    def test_bad_byte_is_named_by_file_and_line(self, corpus_csv, tmp_path, capsys, kind):
        name, valid, template, words = TEXT_INPUTS[kind]
        text = valid(tmp_path)
        path = tmp_path / name
        # the last line holds the byte; 0x97 can only continue a character
        path.write_bytes(text.encode("utf-8") + b"caf\x97\n")
        out = tmp_path / "out"
        argv = [a.format(file=path, corpus=corpus_csv) for a in template] + ["--out", out]
        code, printed, err = run(argv, capsys)
        assert (code, printed) == (1, "")
        line = text.count("\n") + 1
        assert err == f"error: {words}: {path}:{line}: not UTF-8 text (invalid start byte)\n"
        assert not out.exists()


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

    def test_keys_the_command_has_no_flag_for_are_ignored(self, corpus_csv, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"corpus = {corpus_csv}\nbatch_size = 8\n", encoding="utf-8")
        out = tmp_path / "static"
        code, _, _ = run(["pretrain-static", "--config", config, "--out", out,
                          "--dimension", "6", "--epochs", "1"], capsys)
        assert code == 0
        config.write_text("batch_size = 8\nlr = 0.5\n", encoding="utf-8")
        code, _, _ = run(["finetune-static", "--config", config, "--model", out / "static.ckpt",
                          "--unlabeled", corpus_csv, "--epochs", "1", "--out", tmp_path / "ft"],
                         capsys)
        assert code == 0

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

    def test_a_relative_corpus_missing_under_the_data_dir_is_one_error_line(
            self, corpus_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SE3M_DATA_DIR", str(corpus_csv.parent))
        code, _, err = run(["stats", "--corpus", "absent.csv", "--out", tmp_path / "s"], capsys)
        assert code == 1
        assert err.startswith("error: cannot load corpus") and err.count("\n") == 1, err
        assert "absent.csv" in err


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


class TestTrainHistory:
    def test_history_json_matches_the_estimator_meta(self, trained):
        text = (trained / "history.json").read_text(encoding="utf-8")
        history = json.loads(text)
        assert list(history) == [f.name for f in dataclasses.fields(TrainHistory)]
        assert text == json.dumps(history, indent=2) + "\n"
        _, meta, _ = load_checkpoint(trained / "estimator.ckpt")
        assert meta["history"] == history


@pytest.fixture(scope="module")
def finetuned(trained, tmp_path_factory):
    """`finetune-ctx` run on the trained encoder; returns its output directory."""
    out = tmp_path_factory.mktemp("finetuned")
    assert main(["finetune-ctx", "--model", str(trained / "encoder.ckpt"),
                 "--unlabeled", str(trained / "docs.txt"), "--epochs", "1",
                 "--out", str(out)]) == 0
    return out


class TestContextualCommands:
    def test_finetune_ctx_changes_parameters_not_pieces(self, trained, finetuned):
        before = load_transformer(trained / "encoder.ckpt")
        after = load_transformer(finetuned / "encoder_finetuned.ckpt")
        _, meta, _ = load_checkpoint(finetuned / "encoder_finetuned.ckpt")
        assert meta["kind"] == "transformer_lm"
        assert after.config == before.config
        assert after.vocab.tokens == before.vocab.tokens
        assert {k: p.shape for k, p in after.params.items()} == \
            {k: p.shape for k, p in before.params.items()}
        assert any(not np.array_equal(after.params[k].data, before.params[k].data)
                   for k in before.params)

    def test_embed_writes_one_row_per_record(self, trained, finetuned, tmp_path, capsys):
        code, out, err = run(["embed", "--corpus", trained / "stories.csv",
                              "--model", finetuned / "encoder_finetuned.ckpt",
                              "--out", tmp_path], capsys)
        assert code == 0, err
        assert "embedded 30 requirements at dimension 8" in out
        with open(tmp_path / "embeddings.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id"] + [f"dim{i}" for i in range(8)]
        assert [row[0] for row in rows[1:]] == [f"REQ-{i:03d}" for i in range(30)]
        assert all(len(row) == 9 for row in rows[1:])


class TestPretrainingFlags:
    @pytest.mark.parametrize("flags, message", [
        (["--max-len", "2"], "max_len must be at least 4, got 2"),
        (["--hidden", "0", "--heads", "2"], "hidden 0 is not a positive multiple of heads 2"),
        (["--batch-size", "0"], "batch_size must be at least 1, got 0"),
        (["--ff", "0"], "ff must be >= 1, got 0"),
    ], ids=["max-len-2", "hidden-0", "batch-size-0", "ff-0"])
    def test_pretrain_ctx_refuses_with_one_error_line(self, trained, tmp_path, capsys, flags, message):
        out = tmp_path / "encoder"
        code, text, err = run(["pretrain-ctx", "--unlabeled", trained / "docs.txt", "--layers", "1",
                               "--hidden", "8", "--heads", "2", "--ff", "8", "--vocab-size", "80",
                               "--epochs", "1", "--n-examples", "4", "--out", out] + flags, capsys)
        assert (code, text, err) == (1, "", f"error: {message}\n")
        assert not out.exists()


class TestLearningRate:
    @pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["pretrain-static", "pretrain-ctx", "finetune-ctx",
                                         "train", "evaluate"])
    def test_a_rate_not_positive_and_finite_is_one_error_line(self, trained, tmp_path, capsys,
                                                              command, lr):
        # at the parent of this check a negative rate trained by gradient ascent and exited 0
        flags = {
            "pretrain-static": ["--corpus", trained / "stories.csv", "--dimension", "6"],
            "pretrain-ctx": ["--unlabeled", trained / "docs.txt", "--layers", "1", "--hidden", "8",
                             "--heads", "2", "--ff", "8", "--vocab-size", "80", "--n-examples", "4"],
            "finetune-ctx": ["--model", trained / "encoder.ckpt", "--unlabeled",
                             trained / "docs.txt", "--n-examples", "4"],
            "train": ["--corpus", trained / "stories.csv", "--embedding", trained / "static.ckpt",
                      "--mode", "pooled"],
            "evaluate": ["--corpus", trained / "stories.csv", "--embedding",
                         trained / "static.ckpt", "--mode", "pooled", "--experiment", "E1",
                         "--kfold", "2"],
        }[command]
        out = tmp_path / "out"
        code, text, err = run([command, *flags, "--epochs", "1", "--lr", lr, "--out", out], capsys)
        assert (code, text) == (1, "")
        assert err == f"error: learning rate must be positive and finite, got {float(lr)}\n"
        assert not out.exists()

    def test_finetune_ctx_checks_the_rate_also_at_zero_epochs(self, trained, tmp_path, capsys):
        out = tmp_path / "out"
        code, text, err = run(["finetune-ctx", "--model", trained / "encoder.ckpt", "--unlabeled",
                               trained / "docs.txt", "--epochs", "0", "--lr", "-1", "--out", out],
                              capsys)
        assert (code, text) == (1, "")
        assert err == "error: learning rate must be positive and finite, got -1.0\n"
        assert not out.exists()


# Well-formed containers whose model meta does not describe a model.
META_FLAWS = {
    "config-unknown-key": lambda meta: meta["config"].update(bogus=1),
    "config-missing-key": lambda meta: meta["config"].pop("seed"),
    "config-mistyped": lambda meta: meta["config"].update(seed="0"),
    "config-not-object": lambda meta: meta.update(config=[1, 2]),
    "no-config": lambda meta: meta.pop("config"),
}


def damaged(blob: bytes, flaw: str) -> bytes:
    if flaw == "truncated":
        return blob[: len(blob) // 2]
    if flaw == "ten-bytes":
        return blob[:10]
    if flaw in META_FLAWS:
        return rewrite_header(blob, lambda header: META_FLAWS[flaw](header["meta"]))
    if flaw == "version-1":  # the format-1 layout: no trailing digest
        return rewrite_header(blob, lambda header: header.update(format_version=1))[:-32]
    # unknown-dtype: the same container with its first parameter declared int8
    return rewrite_header(blob, lambda header: header["params"][0].update(dtype="int8"))


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


# the slots of the commands that read checkpoints without training them
READ_SLOTS = [slot for slot in CHECKPOINT_SLOTS if slot[0] in ("predict", "serve", "evaluate")]


# Well-formed encoder containers that no trained encoder would write: each
# edits the parameters and text sections that `load_checkpoint` returns.
ENCODER_FLAWS = {
    "renamed": lambda params, sections: params.update({"emb.tokens": params.pop("emb.token")}),
    "missing": lambda params, sections: params.pop("nsp.b"),
    "wrong-shape": lambda params, sections: params.update(
        {"nsp.w": parameter(params["nsp.w"].data.T)}),
    "specials-out-of-order": lambda params, sections: sections.update(
        vocab=swap_lines(sections["vocab"], 0, 1)),
}


def swap_lines(text: str, i: int, j: int) -> str:
    lines = text.splitlines(keepends=True)
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


# Well-formed static containers that no trained model would write: each
# edits the meta and text sections that `load_checkpoint` returns.
STATIC_FLAWS = {
    "mode-glove": lambda meta, sections: meta["config"].update(mode="glove"),
    "window-zero": lambda meta, sections: meta["config"].update(window=0),
    "dimension-unlike-table": lambda meta, sections: meta["config"].update(dimension=3),
    "vocab-without-tabs": lambda meta, sections: sections.update(
        vocab=sections["vocab"].replace("\t", " ")),
    "vocab-rows-out-of-order": lambda meta, sections: sections.update(
        vocab=swap_lines(sections["vocab"], 2, 3)),
}

# every command that reads a static checkpoint and trains or exports from it
STATIC_SLOTS = [
    ("embed", "--model", ["--corpus", "stories.csv"]),
    ("train", "--embedding", ["--corpus", "stories.csv", "--mode", "pooled"]),
    ("finetune-static", "--model", ["--unlabeled", "docs.txt"]),
]

# every slot that takes an encoder, and `embed`, which takes either embedding
ENCODER_SLOTS = [(c, f, rest) for c, f, expects, rest in CHECKPOINT_SLOTS if expects == "encoder"]
ENCODER_SLOTS.append(("embed", "--model", ["--corpus", "stories.csv"]))


class TestCheckpointErrors:
    @pytest.mark.parametrize("flaw", ["missing", "truncated", "ten-bytes", "unknown-dtype",
                                      "wrong-kind", "version-1", *sorted(META_FLAWS)])
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
        monkeypatch.chdir(tmp_path)  # no --out: nothing lands in the caller's ./out
        argv = [command, flag, bad]
        argv += [trained / a if a.endswith((".txt", ".csv", ".ckpt")) else a for a in rest]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "bad.ckpt" in err
        assert "sha256" not in err  # each flaw is refused for itself, not for the digest

    @pytest.mark.parametrize("command,flag,expects,rest", READ_SLOTS,
                             ids=[c + f for c, f, _, _ in READ_SLOTS])
    def test_changed_in_place_is_refused(
            self, trained, tmp_path, capsys, monkeypatch, command, flag, expects, rest):
        monkeypatch.setattr("storypointer.cli.serve_forever", lambda *args, **kwargs: None)
        alone = tmp_path / "alone"
        alone.mkdir()
        bad = alone / "bad.ckpt"
        blob = (trained / f"{expects}.ckpt").read_bytes()
        # the same length with 30 bytes of the first parameter zeroed, which
        # would load as a model if nothing checked it
        (length,) = struct.unpack("<I", blob[8:12])
        start = 12 + length
        bad.write_bytes(blob[:start] + bytes(30) + blob[start + 30:])
        monkeypatch.chdir(tmp_path)  # no --out: nothing lands in the caller's ./out
        argv = [command, flag, bad]
        argv += [trained / a if a.endswith((".txt", ".csv", ".ckpt")) else a for a in rest]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "bad.ckpt" in err and "sha256" in err
        assert [p.name for p in alone.iterdir()] == ["bad.ckpt"]

    @pytest.mark.parametrize("edit", [
        lambda header: header["meta"].update(input_dim="6"),
        lambda header: header["meta"].pop("input_dim"),
        lambda header: header["meta"]["config"].update(dense_sizes=[4]),
        lambda header: header["meta"]["config"].update(dense_sizes=[4, 2.5]),
        lambda header: header["meta"].update(source="static"),
        lambda header: [e.update(shape=e["shape"][::-1]) for e in header["params"]
                        if e["name"] == "dense1.weight"],
    ], ids=["input-dim-mistyped", "no-input-dim", "one-dense-size", "float-dense-size",
            "source-not-object", "transposed-weight"])
    def test_bad_estimator_meta_is_one_error_line(self, trained, tmp_path, capsys, edit):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(rewrite_header((trained / "estimator.ckpt").read_bytes(), edit))
        code, _, err = run(["predict", "--model", bad, "--embedding", trained / "static.ckpt",
                            "--text", "fix it"], capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "bad.ckpt" in err and "sha256" not in err

    @pytest.mark.parametrize("flaw", sorted(ENCODER_FLAWS))
    @pytest.mark.parametrize("command,flag,rest", ENCODER_SLOTS,
                             ids=[c + f for c, f, _ in ENCODER_SLOTS])
    def test_encoder_params_unlike_config_are_one_error_line(
            self, trained, tmp_path, capsys, monkeypatch, command, flag, rest, flaw):
        def never(*args, **kwargs):
            raise AssertionError("the server must not start on a bad checkpoint")

        monkeypatch.setattr("storypointer.cli.serve_forever", never)
        params, meta, sections = load_checkpoint(trained / "encoder.ckpt")
        ENCODER_FLAWS[flaw](params, sections)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, meta=meta, sections=sections)
        monkeypatch.chdir(tmp_path)  # no --out: nothing lands in the caller's ./out
        argv = [command, flag, bad]
        argv += [trained / a if a.endswith((".txt", ".csv", ".ckpt")) else a for a in rest]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "bad.ckpt" in err

    @pytest.mark.parametrize("flaw", sorted(STATIC_FLAWS))
    @pytest.mark.parametrize("command,flag,rest", STATIC_SLOTS,
                             ids=[c + f for c, f, _ in STATIC_SLOTS])
    def test_static_checkpoint_unlike_a_trained_one_is_one_error_line(
            self, trained, tmp_path, capsys, command, flag, rest, flaw):
        params, meta, sections = load_checkpoint(trained / "static.ckpt")
        STATIC_FLAWS[flaw](meta, sections)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, meta=meta, sections=sections)
        argv = [command, flag, bad, "--out", tmp_path / "out"]
        argv += [trained / a if a.endswith((".txt", ".csv")) else a for a in rest]
        code, text, err = run(argv, capsys)
        assert (code, text) == (1, "")
        assert err.startswith(f"error: cannot load model: {bad}: ") and err.count("\n") == 1, err

    def test_missing_unlabeled_file_is_one_error_line(self, trained, tmp_path, capsys):
        code, _, err = run(["finetune-static", "--model", trained / "static.ckpt",
                            "--unlabeled", tmp_path / "missing.txt", "--out", tmp_path], capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.txt" in err


@pytest.fixture(scope="module")
def other_width(trained, tmp_path_factory):
    """Heads trained on a d=8 static table and on a hidden-4 encoder, in
    `static/` and `encoder/`: widths that the trained fixture's static table
    (d=6) and encoder (hidden 8) do not have."""
    root = tmp_path_factory.mktemp("other-width")
    for argv in (
        ["pretrain-static", "--corpus", trained / "stories.csv", "--dimension", "8",
         "--epochs", "1"],
        ["pretrain-ctx", "--unlabeled", trained / "docs.txt", "--layers", "1", "--hidden", "4",
         "--heads", "2", "--ff", "8", "--vocab-size", "80", "--epochs", "1", "--n-examples", "4"],
    ):
        assert main([str(a) for a in argv] + ["--out", str(root)]) == 0
    for embedding in ("static", "encoder"):
        assert main([str(a) for a in ["train", "--corpus", trained / "stories.csv",
                                      "--embedding", root / f"{embedding}.ckpt",
                                      "--mode", "pooled", "--epochs", "2",
                                      "--out", root / embedding]]) == 0
    return root


class TestPairing:
    # embedding: (its kind, the width the other head reads, the trained fixture's width)
    WIDTHS = {"static": ("static", 8, 6), "encoder": ("contextual", 4, 8)}

    @pytest.mark.parametrize("command", ["predict", "serve"])
    @pytest.mark.parametrize("embedding", sorted(WIDTHS))
    def test_another_width_is_one_error_line(self, trained, other_width, capsys, monkeypatch,
                                             command, embedding):
        def never(*args, **kwargs):
            raise AssertionError("the server must not start on a head it cannot feed")

        monkeypatch.setattr("storypointer.cli.serve_forever", never)
        rest = ["--text", "fix it"] if command == "predict" else ["--bind", "127.0.0.1:0"]
        code, out, err = run([command, "--model", other_width / embedding / "estimator.ckpt",
                              "--embedding", trained / f"{embedding}.ckpt", *rest], capsys)
        kind, reads, gives = self.WIDTHS[embedding]
        assert (code, out) == (1, "")
        assert err == (f"error: the head reads {kind} pooled features of dimension {reads}, "
                       f"but the embedding gives {kind} pooled features of dimension {gives}\n")


def write_config(tmp_path, text: str) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def write_file(tmp_path) -> Path:
    path = tmp_path / "a-file"
    path.write_text("not a directory\n", encoding="utf-8")
    return path


def fake_run(root: Path) -> Path:
    """A run directory holding one evaluation's provenance: enough for `report`."""
    (root / "E1").mkdir(parents=True)
    (root / "E1" / "provenance.json").write_text('{"experiment": "E1"}\n', encoding="utf-8")
    return root


# failures that each end in one error line, never a traceback: for each,
# the argument list built from the trained fixture and tmp_path, and a
# text the error line names
FAILURES = {
    "stats-out-is-a-file": (lambda root, tmp: [
        "stats", "--corpus", root / "stories.csv", "--out", write_file(tmp)], "a-file"),
    "report-out-is-a-file": (lambda root, tmp: [
        "report", "--run", fake_run(tmp / "run"), "--out", write_file(tmp)], "a-file"),
    "train-config-mode": (lambda root, tmp: [
        "train", "--corpus", root / "stories.csv", "--embedding", root / "static.ckpt",
        "--epochs", "1", "--config", write_config(tmp, "mode = bogus\n")], "bogus"),
    "pretrain-static-config-embed-mode": (lambda root, tmp: [
        "pretrain-static", "--corpus", root / "stories.csv", "--epochs", "1",
        "--config", write_config(tmp, "embed_mode = sgram\n")], "sgram"),
    "evaluate-config-experiment": (lambda root, tmp: [
        "evaluate", "--corpus", root / "stories.csv", "--embedding", root / "static.ckpt",
        "--mode", "pooled", "--kfold", "2", "--epochs", "1",
        "--config", write_config(tmp, "experiment = E9\n")], "E9"),
    "pretrain-static-min-count-zero": (lambda root, tmp: [
        "pretrain-static", "--corpus", root / "stories.csv", "--epochs", "1",
        "--min-count", "0"], "min_count"),
    "evaluate-config-by-project": (lambda root, tmp: [
        "evaluate", "--corpus", root / "stories.csv", "--embedding", root / "static.ckpt",
        "--experiment", "E1", "--mode", "pooled", "--epochs", "1",
        "--config", write_config(tmp, "by_project = maybe\n")], "maybe"),
    "evaluate-kfold-one": (lambda root, tmp: [
        "evaluate", "--corpus", root / "stories.csv", "--embedding", root / "static.ckpt",
        "--experiment", "E1", "--mode", "pooled", "--epochs", "1", "--kfold", "1"], "k must be >= 2"),
    "train-batch-size-zero": (lambda root, tmp: [
        "train", "--corpus", root / "stories.csv", "--embedding", root / "static.ckpt",
        "--mode", "pooled", "--epochs", "1", "--batch-size", "0"], "batch_size"),
    "stats-config-unreadable": (lambda root, tmp: [
        "stats", "--corpus", root / "stories.csv", "--config", tmp / "absent.cfg"],
        "cannot read config file"),
    "serve-port-out-of-range": (lambda root, tmp: [
        "serve", "--model", root / "estimator.ckpt", "--embedding", root / "static.ckpt",
        "--bind", "127.0.0.1:99999"], "99999"),
}


class TestErrorBoundary:
    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_failure_is_one_error_line(self, trained, tmp_path, capsys, monkeypatch, case):
        monkeypatch.chdir(tmp_path)  # nothing lands in the caller's ./out
        build, needle = FAILURES[case]
        code, _, err = run(build(trained, tmp_path), capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert needle in err

    def test_non_finite_estimate_is_one_error_line(self, trained, capsys, monkeypatch):
        monkeypatch.setattr("storypointer.server.predict",
                            lambda model, batch: np.array([np.nan]))
        code, out, err = run(["predict", "--model", trained / "estimator.ckpt",
                              "--embedding", trained / "static.ckpt", "--text", "fix it"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: the model estimated a non-finite effort (nan)\n"

    @pytest.mark.parametrize("lr,epoch", [("1e20", 2), ("1e300", 1)])
    def test_diverging_static_training_is_one_error_line(self, trained, tmp_path, capsys, lr, epoch):
        out = tmp_path / "static"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text, err = run(["pretrain-static", "--corpus", trained / "stories.csv",
                                   "--dimension", "16", "--epochs", "2", "--lr", lr,
                                   "--out", out], capsys)
        assert (code, text) == (1, "")
        assert err == ("error: static embedding training diverged: "
                       f"non-finite vectors after epoch {epoch}\n")
        assert [str(w.message) for w in caught] == []  # no overflow warning either
        assert not out.exists()

    def test_diverging_head_training_is_one_error_line(self, trained, tmp_path, capsys):
        # vectors this large stay finite, so the checkpoint loads, but the head's loss does not
        static = load_static(trained / "static.ckpt")
        static.vectors_in *= 1e200
        save_static(static, tmp_path / "huge.ckpt")
        out = tmp_path / "head"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text, err = run(["train", "--corpus", trained / "stories.csv",
                                   "--embedding", tmp_path / "huge.ckpt", "--mode", "pooled",
                                   "--epochs", "3", "--out", out], capsys)
        assert (code, text) == (1, "")
        assert err == ("error: head training diverged: train loss inf "
                       "and validation MAE nan after epoch 1\n")
        assert [str(w.message) for w in caught] == []
        assert not (out / "estimator.ckpt").exists() and not (out / "history.json").exists()

    def test_report_writes_an_explicit_out_named_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_dir = fake_run(tmp_path / "run")
        code, text, _ = run(["report", "--run", run_dir, "--out", "out"], capsys)
        assert code == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert not (run_dir / "bundle").exists()
        assert text.strip() == "report bundle -> out"

    @pytest.mark.parametrize("out", ["run", "{tmp}/run", "run/E1", "run/E1/deeper"])
    def test_report_refuses_to_bundle_into_its_own_run(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        fake_run(tmp_path / "run")
        out = out.format(tmp=tmp_path)
        code, text, err = run(["report", "--run", "run", "--out", out], capsys)
        assert (code, text) == (1, "")
        assert err == (f"error: cannot bundle run into {out}: the bundle must be neither "
                       "the run directory nor inside one of its evaluations\n")
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "run", "run/E1", "run/E1/provenance.json"]


class TestDeepNesting:
    """JSON nested past the parser's recursion limit is refused as any other
    bad JSON at that site is: one error line or one rejection, no traceback."""

    def test_ingest_rejects_the_line(self, tmp_path, capsys):
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text('{"id": "A-1", "project": "p", "text": "fix the login form", "effort": 3}\n'
                          + "[" * 2000 + "\n", encoding="utf-8")
        code, out, err = run(["ingest", "--corpus", corpus, "--out", tmp_path / "out"], capsys)
        assert (code, err) == (0, "")
        assert "ingested 1 records" in out and "1 rejected" in out
        assert ((tmp_path / "out" / "rejections.txt").read_text(encoding="utf-8")
                == "deep.jsonl:2: invalid json: nested too deeply\n")

    def one_error_line(self, argv, capsys) -> str:
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        return err

    def test_pretrain_static_keeps_the_unlabeled_line_as_text(self, tmp_path, capsys):
        docs = tmp_path / "docs.txt"
        docs.write_text('{"text": ' + "[" * 3000 + "\n", encoding="utf-8")
        err = self.one_error_line(["pretrain-static", "--unlabeled", docs, "--epochs", "1",
                                   "--out", tmp_path / "out"], capsys)
        # the line is one document of one word, so there is nothing to train on
        assert err == "error: corpus yields no training pairs inside the window\n"

    def test_predict_refuses_a_deeply_nested_checkpoint_header(self, trained, tmp_path, capsys):
        blob = (trained / "estimator.ckpt").read_bytes()
        (length,) = struct.unpack("<I", blob[8:12])
        deep = tmp_path / "deep.ckpt"
        deep.write_bytes(blob[:8] + struct.pack("<I", 5000) + b"[" * 5000 + blob[12 + length:])
        err = self.one_error_line(["predict", "--model", deep, "--embedding", trained / "static.ckpt",
                                   "--text", "fix it"], capsys)
        assert err == f"error: cannot load model: {deep}: the header is nested too deeply\n"

    @pytest.mark.parametrize("text, needle", [
        ("[" * 3000, "unreadable provenance (maximum recursion depth exceeded"),
        ('{"seeds": ' + "[" * 960 + "]" * 960 + "}", "unreadable provenance (maximum recursion depth"),
        ("[1]", "provenance must be a JSON object whose embedding is an object"),
        ('{"experiment": "E1", "embedding": []}',
         "provenance must be a JSON object whose embedding is an object"),
        ('{"experiment": "E1", "aggregate": {"mae": {"mean": 1.0}}}',
         "aggregate must hold the mean and std_population of mae, mse and mdae"),
    ], ids=["deep", "deep-seeds", "not-an-object", "embedding-not-an-object", "aggregate-short"])
    def test_report_refuses_a_provenance_it_cannot_read(self, tmp_path, capsys, text, needle):
        run_dir = fake_run(tmp_path / "run")
        source = run_dir / "E1" / "provenance.json"
        source.write_text(text, encoding="utf-8")
        err = self.one_error_line(["report", "--run", run_dir], capsys)
        assert err.startswith(f"error: {source}: {needle}"), err
        assert not (run_dir / "bundle").exists()


class TestConfigBoolean:
    def test_by_project_yes_runs_a_by_project_evaluate(self, trained, tmp_path, capsys):
        eval_out = tmp_path / "eval"
        code, out, _ = run(["evaluate", "--corpus", trained / "stories.csv", "--experiment", "E1",
                            "--embedding", trained / "static.ckpt", "--out", eval_out,
                            "--mode", "pooled", "--epochs", "1",
                            "--config", write_config(tmp_path, "by_project = yes\n")], capsys)
        assert code == 0
        assert "E1 over 3 rounds" in out  # one round per project
        assert (eval_out / "E1" / "per_project.csv").exists()

    def test_by_project_false_runs_a_kfold_evaluate(self, trained, tmp_path, capsys):
        eval_out = tmp_path / "eval"
        code, out, _ = run(["evaluate", "--corpus", trained / "stories.csv", "--experiment", "E1",
                            "--embedding", trained / "static.ckpt", "--out", eval_out,
                            "--mode", "pooled", "--epochs", "1", "--kfold", "2",
                            "--config", write_config(tmp_path, "by_project = false\n")], capsys)
        assert code == 0
        assert "E1 over 2 rounds" in out
        assert not (eval_out / "E1" / "per_project.csv").exists()


class TestRealServe:
    def test_serves_healthz_and_exits_130_on_sigint(self, trained):
        """`storypointer serve` in its own process, with the real serve loop."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "storypointer.cli", "serve",
             "--model", str(trained / "estimator.ckpt"),
             "--embedding", str(trained / "static.ckpt"), "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        try:
            announce = proc.stdout.readline()
            address = re.search(r"http://(\S+)/estimate", announce)
            assert address, announce
            with urllib.request.urlopen(f"http://{address.group(1)}/healthz", timeout=10) as reply:
                assert reply.status == 200
                assert json.loads(reply.read()) == {"status": "ok"}
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "Traceback" not in err


# 20 rounds of allocating, touching and freeing 32 arrays of 1 MiB, printing
# each round's minor page faults; argv[1] "keep" applies main's heap policy
# first. One big array would not show the default policy: glibc's adaptive
# mmap threshold moves it onto the heap from the second round on.
FAULT_ROUNDS = """
import json, resource, sys
import numpy as np
from storypointer import cli
if sys.argv[1] == "keep":
    cli._keep_freed_memory()
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 17) for _ in range(32)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def huge_pages_always() -> bool:
    """Whether the kernel backs the heap with huge pages, so a fault maps more than a page."""
    try:
        return "[always]" in Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
    except OSError:
        return False


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
    @pytest.mark.skipif(huge_pages_always(), reason="faults count huge pages")
    def test_freed_arrays_are_reused_without_faulting_them_in(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                        env.get("PYTHONPATH")) if p)
        rounds = {policy: json.loads(subprocess.run(
            [sys.executable, "-c", FAULT_ROUNDS, policy], env=env, capture_output=True,
            text=True, check=True, timeout=120).stdout) for policy in ("keep", "default")}
        pages = (32 << 20) // os.sysconf("SC_PAGE_SIZE")
        assert max(rounds["keep"][1:]) < pages // 64, rounds["keep"]
        # the default policy trims the freed heap, so every round faults it in again
        assert min(rounds["default"][1:]) >= pages // 2, rounds["default"]

    def test_sets_both_thresholds_on_glibc(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(
            mallopt=lambda param, value: calls.append((param, value))))
        cli._keep_freed_memory()
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_does_nothing_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        cli._keep_freed_memory()

    def test_does_not_load_a_libc_off_glibc(self, monkeypatch):
        def refuse(name):
            raise AssertionError("loaded a C library off glibc")
        monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("", ""))
        monkeypatch.setattr(cli.ctypes, "CDLL", refuse)
        cli._keep_freed_memory()


COMMON = ["--config"]
RUN = ["--seed", "--out"]  # every command that trains takes both
TRAINING = ["--epochs", "--batch-size", "--lr"]
HEAD = ["--mode", "--patience", "--val-fraction"]

# every subcommand's options besides COMMON, and the choices of those that have them
PARSER_SURFACE = {
    "ingest": ["--out", "--corpus"],
    "stats": ["--out", "--corpus"],
    "pretrain-static": [*RUN, "--corpus", "--unlabeled", "--embed-mode", "--dimension",
                        "--window", "--negatives", "--min-count", "--epochs", "--lr"],
    "finetune-static": [*RUN, "--unlabeled", "--epochs", "--model"],
    "pretrain-ctx": [*RUN, "--corpus", "--unlabeled", "--vocab-size", "--layers", "--hidden",
                     "--heads", "--ff", "--max-len", "--mask-rate", "--n-examples", *TRAINING],
    "finetune-ctx": [*RUN, "--corpus", "--unlabeled", "--mask-rate", "--n-examples", *TRAINING,
                     "--model"],
    "embed": ["--out", "--corpus", "--model"],
    "train": [*RUN, "--corpus", *TRAINING, *HEAD, "--embedding", "--output"],
    "evaluate": [*RUN, "--corpus", *TRAINING, *HEAD, "--embedding", "--experiment", "--kfold",
                 "--by-project"],
    "predict": ["--model", "--embedding", "--text"],
    "serve": ["--model", "--embedding", "--bind"],
    "report": ["--out", "--run"],
}
CHOICES = {
    "--embed-mode": ["cbow", "skipgram"],
    "--mode": ["sequence", "pooled"],
    "--output": ["linear", "softmax"],
    "--experiment": ["E1", "E2", "E3", "E4", "E5"],
}


def test_every_subcommand_keeps_its_options_and_choices():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(PARSER_SURFACE)
    for name, options in PARSER_SURFACE.items():
        seen = {option: list(action.choices) if action.choices else None
                for action in commands[name]._actions for option in action.option_strings
                if option not in ("-h", "--help")}
        assert seen == {option: CHOICES.get(option) for option in COMMON + options}, name
