"""Command-line interface: exit codes, config merging, artifact layout."""

import argparse
import csv
import dataclasses
import hashlib
import json
import struct
from pathlib import Path

import pytest

from storypointer.cli import build_parser, main
from storypointer.estimator import TrainHistory
from storypointer.kernel import parameter
from storypointer.kernel.checkpoint import load_checkpoint, save_checkpoint

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


def rewrite_header(blob: bytes, edit) -> bytes:
    """The same container with `edit` applied to its JSON header, resealed
    with the sha256 of its new bytes so that only the edit is at fault."""
    (length,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + length])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    body = blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + length:-32]
    return body + hashlib.sha256(body).digest()


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


# Well-formed encoder containers whose parameters do not fit their config.
ENCODER_PARAM_FLAWS = {
    "renamed": lambda params: params.update({"emb.tokens": params.pop("emb.token")}),
    "missing": lambda params: params.pop("nsp.b"),
    "wrong-shape": lambda params: params.update(
        {"nsp.w": parameter(params["nsp.w"].data.T)}),
}

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
        argv = [command, flag, bad, "--out", tmp_path / "out"]
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
        argv = [command, flag, bad, "--out", tmp_path / "out"]
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

    @pytest.mark.parametrize("flaw", sorted(ENCODER_PARAM_FLAWS))
    @pytest.mark.parametrize("command,flag,rest", ENCODER_SLOTS,
                             ids=[c + f for c, f, _ in ENCODER_SLOTS])
    def test_encoder_params_unlike_config_are_one_error_line(
            self, trained, tmp_path, capsys, monkeypatch, command, flag, rest, flaw):
        def never(*args, **kwargs):
            raise AssertionError("the server must not start on a bad checkpoint")

        monkeypatch.setattr("storypointer.cli.serve_forever", never)
        params, meta, sections = load_checkpoint(trained / "encoder.ckpt")
        ENCODER_PARAM_FLAWS[flaw](params)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, meta=meta, sections=sections)
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

    def test_report_writes_an_explicit_out_named_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_dir = fake_run(tmp_path / "run")
        code, text, _ = run(["report", "--run", run_dir, "--out", "out"], capsys)
        assert code == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert not (run_dir / "bundle").exists()
        assert text.strip() == "report bundle -> out"


COMMON = ["--config", "--seed", "--out"]
TRAINING = ["--epochs", "--batch-size", "--lr"]
HEAD = ["--mode", "--patience", "--val-fraction"]

# every subcommand's options besides COMMON, and the choices of those that have them
PARSER_SURFACE = {
    "ingest": ["--corpus"],
    "stats": ["--corpus"],
    "pretrain-static": ["--corpus", "--unlabeled", "--embed-mode", "--dimension", "--window",
                        "--negatives", "--min-count", "--epochs", "--lr"],
    "finetune-static": ["--unlabeled", "--epochs", "--model"],
    "pretrain-ctx": ["--corpus", "--unlabeled", "--vocab-size", "--layers", "--hidden",
                     "--heads", "--ff", "--max-len", "--mask-rate", "--n-examples", *TRAINING],
    "finetune-ctx": ["--corpus", "--unlabeled", "--mask-rate", "--n-examples", *TRAINING,
                     "--model"],
    "embed": ["--corpus", "--model"],
    "train": ["--corpus", *TRAINING, *HEAD, "--embedding", "--output"],
    "evaluate": ["--corpus", *TRAINING, *HEAD, "--embedding", "--experiment", "--kfold",
                 "--by-project"],
    "predict": ["--model", "--embedding", "--text"],
    "serve": ["--model", "--embedding", "--bind"],
    "report": ["--run"],
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
