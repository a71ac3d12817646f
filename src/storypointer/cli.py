"""Command-line pipeline driver.

Subcommands follow the pipeline order: ingest and stats inspect the
labeled corpus; pretrain-static / pretrain-ctx build embedding models;
finetune-* continue them on a new corpus; embed exports pooled vectors;
train fits an estimator head; evaluate runs a cross-validated
experiment; predict and serve answer for single requirements; report
bundles everything written by earlier commands.

Every flag can also come from a flat `key=value` config file passed via
--config; explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .corpus import (
    LabeledCorpus,
    UnlabeledCorpus,
    corpus_stats,
    kfold_split,
    leave_one_project_out,
    load_labeled,
    load_unlabeled,
    save_jsonl,
)
from .estimator import (
    EstimatorModel,
    HeadConfig,
    estimator_from_parts,
    save_estimator,
    train_estimator,
)
from .experiments import EXPERIMENTS, carve_validation, run_experiment
from .features import ContextualFeaturizer, StaticFeaturizer
from .kernel.checkpoint import load_checkpoint
from .lm_training import finetune_lm, pretrain
from .pretrain_data import create_pretraining_data
from .reports import (
    emit_report,
    export_embeddings,
    file_sha256,
    write_corpus_stats,
    write_fold_report,
    write_project_table,
)
from .server import EstimateService, serve_forever
from .static_embed import (
    StaticEmbeddingModel,
    StaticTrainConfig,
    finetune_static,
    save_static,
    static_from_parts,
    train_static,
)
from .transformer import (
    TransformerConfig,
    TransformerModel,
    save_transformer,
    transformer_from_parts,
)
from .wordpiece import build_wordpiece_vocab

DATA_DIR_VAR = "SE3M_DATA_DIR"

# applied after config-file merging; argparse defaults stay None so an
# unset flag is distinguishable from an explicitly passed default
_DEFAULTS: Dict[str, object] = {
    "seed": 0,
    "out": "out",
    "mode": "sequence",
    "embed_mode": "cbow",
    "dimension": 100,
    "window": 5,
    "negatives": 5,
    "epochs": None,  # per-command below
    "lr": None,
    "min_count": 1,
    "vocab_size": 2000,
    "layers": 4,
    "hidden": 128,
    "heads": 4,
    "ff": 512,
    "max_len": 100,
    "mask_rate": 0.15,
    "batch_size": None,
    "n_examples": None,
    "output": "linear",
    "patience": 5,
    "val_fraction": 0.1,
    "kfold": 10,
    "by_project": False,
    "bind": "127.0.0.1:8080",
}

_COMMAND_DEFAULTS: Dict[str, Dict[str, object]] = {
    "pretrain-static": {"epochs": 5, "lr": 0.025},
    "finetune-static": {"epochs": 5},
    "pretrain-ctx": {"epochs": 5, "lr": 1e-3, "batch_size": 32},
    "finetune-ctx": {"epochs": 5, "lr": 1e-3, "batch_size": 32},
    "train": {"epochs": 20, "lr": 0.002, "batch_size": 128},
    "evaluate": {"epochs": 20, "lr": 0.002, "batch_size": 128},
}

_INT_KEYS = {
    "seed", "dimension", "window", "negatives", "epochs", "min_count",
    "vocab_size", "layers", "hidden", "heads", "ff", "max_len",
    "batch_size", "n_examples", "patience", "kfold",
}
_FLOAT_KEYS = {"lr", "mask_rate", "val_fraction"}
_BOOL_KEYS = {"by_project"}


class CommandError(Exception):
    """A user-facing failure: printed to stderr, exit status 1."""


def _read_config_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CommandError(f"cannot read config file: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CommandError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _cast(key: str, value: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
    except ValueError as exc:
        raise CommandError(f"config value {key}={value!r}: {exc}")
    return value


_PATH_KEYS = {
    "corpus", "unlabeled", "model", "embedding", "text", "run",
    "experiment", "out", "output",
}
_ALL_KEYS = set(_DEFAULTS) | _PATH_KEYS


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file, then from defaults.

    A config file may carry keys for several subcommands; keys the
    current command has no flag for are ignored, unknown keys error.
    """
    known = vars(args)
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in _ALL_KEYS:
                raise CommandError(f"unknown config key {key!r}")
            if key in known and known[key] is None:
                setattr(args, key, _cast(key, raw))
    command_defaults = _COMMAND_DEFAULTS.get(args.command, {})
    for key, value in known.items():
        if value is None:
            fallback = command_defaults.get(key, _DEFAULTS.get(key))
            if fallback is not None:
                setattr(args, key, fallback)
    return args


def _data_path(path: str) -> Path:
    """Resolve a corpus path against SE3M_DATA_DIR for relative names."""
    candidate = Path(path)
    if candidate.is_absolute() or candidate.exists():
        return candidate
    root = os.environ.get(DATA_DIR_VAR)
    if root:
        rooted = Path(root) / candidate
        if rooted.exists():
            return rooted
    return candidate


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) in (None, False):
            raise CommandError(f"--{name.replace('_', '-')} is required for this command")


def _load_labeled(args) -> Tuple[LabeledCorpus, Path]:
    _require(args, "corpus")
    path = _data_path(args.corpus)
    try:
        return load_labeled(path), path
    except (OSError, ValueError) as exc:
        raise CommandError(f"cannot load corpus: {exc}")


def _load_documents(args) -> UnlabeledCorpus:
    """Unlabeled documents, either directly or from the labeled corpus."""
    if getattr(args, "unlabeled", None):
        try:
            return load_unlabeled(_data_path(args.unlabeled))
        except (OSError, ValueError) as exc:
            raise CommandError(f"cannot load unlabeled corpus: {exc}")
    corpus, _ = _load_labeled(args)
    return UnlabeledCorpus(documents=[r.raw_text for r in corpus.records])


_BUILDERS = {
    "static_embedding": static_from_parts,
    "transformer_lm": transformer_from_parts,
    "estimator": estimator_from_parts,
}
_FEATURIZERS = {StaticEmbeddingModel: StaticFeaturizer, TransformerModel: ContextualFeaturizer}


def _load_model(path: Path, *kinds: str):
    """Reads a checkpoint once and builds its model if the kind is one of `kinds`."""
    try:
        params, meta, sections = load_checkpoint(path)
        kind = meta.get("kind")
        if kind not in kinds:
            raise ValueError(f"{path} holds {kind!r}, expected {' or '.join(map(repr, kinds))}")
        return _BUILDERS[kind](params, meta, sections)
    except (OSError, ValueError) as exc:
        raise CommandError(f"cannot load model: {exc}")


def _load_featurizer(path: Path, mode: str):
    model = _load_model(path, "static_embedding", "transformer_lm")
    return _FEATURIZERS[type(model)](model, mode=mode)


def _load_service(args) -> EstimateService:
    """The estimator from --model paired with a featurizer for --embedding."""
    estimator = _load_model(_data_path(args.model), "estimator")
    featurizer = _load_featurizer(_data_path(args.embedding), estimator.config.mode)
    try:
        return EstimateService(estimator, featurizer)
    except ValueError as exc:
        raise CommandError(str(exc))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---- subcommand bodies ------------------------------------------------


def _cmd_ingest(args) -> str:
    corpus, path = _load_labeled(args)
    out = _out_dir(args)
    target = out / "corpus.jsonl"
    save_jsonl(corpus, target)
    if corpus.rejections:
        lines = [f"{r.where}: {r.reason}" for r in corpus.rejections]
        (out / "rejections.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return (
        f"ingested {len(corpus.records)} records from {path} "
        f"({len(corpus.rejections)} rejected, {corpus.degenerate_count} degenerate, "
        f"{corpus.over_range} over-range) -> {target}"
    )


def _cmd_stats(args) -> str:
    corpus, path = _load_labeled(args)
    out = _out_dir(args)
    stats = corpus_stats(corpus)
    write_corpus_stats(stats, out)
    return (
        f"{path}: {stats.n_records} records, {stats.n_projects} projects, "
        f"mean words/text {stats.words_mean:.2f} -> {out}"
    )


def _cmd_pretrain_static(args) -> str:
    documents = _load_documents(args)
    config = StaticTrainConfig(
        mode=args.embed_mode, dimension=args.dimension, window=args.window,
        negatives=args.negatives, epochs=args.epochs, learning_rate=args.lr,
        min_count=args.min_count, seed=args.seed,
    )
    try:
        model = train_static(documents, config)
    except ValueError as exc:
        raise CommandError(str(exc))
    out = _out_dir(args)
    target = out / "static.ckpt"
    save_static(model, target)
    return (
        f"trained {model.model_id} on {len(documents.documents)} documents "
        f"({len(model.vocabulary)} words) -> {target}"
    )


def _cmd_finetune_static(args) -> str:
    _require(args, "model", "unlabeled")
    model = _load_model(_data_path(args.model), "static_embedding")
    documents = _load_documents(args)
    grown = len(model.vocabulary)
    try:
        model = finetune_static(model, documents, extra_epochs=args.epochs, seed=args.seed)
    except ValueError as exc:
        raise CommandError(str(exc))
    out = _out_dir(args)
    target = out / "static_finetuned.ckpt"
    save_static(model, target)
    return (
        f"fine-tuned on {len(documents.documents)} documents "
        f"(vocabulary {grown} -> {len(model.vocabulary)}) -> {target}"
    )


def _cmd_pretrain_ctx(args) -> str:
    documents = _load_documents(args)
    try:
        vocab = build_wordpiece_vocab(documents, size=args.vocab_size)
        config = TransformerConfig(
            layers=args.layers, hidden=args.hidden, heads=args.heads, ff=args.ff,
            max_len=args.max_len, vocab_size=len(vocab), seed=args.seed,
        )
        model = TransformerModel(config, vocab)
        examples = create_pretraining_data(
            documents, vocab, mask_rate=args.mask_rate, seed=args.seed,
            max_len=args.max_len, n_examples=args.n_examples,
        )
        history = pretrain(
            model, examples, epochs=args.epochs, batch_size=args.batch_size,
            learning_rate=args.lr, seed=args.seed,
        )
    except ValueError as exc:
        raise CommandError(str(exc))
    out = _out_dir(args)
    target = out / "encoder.ckpt"
    save_transformer(model, target)
    final = history.joint[-1] if history.joint else float("nan")
    return (
        f"pretrained {model.model_id} on {len(examples)} examples for "
        f"{args.epochs} epochs (final loss {final:.4f}) -> {target}"
    )


def _cmd_finetune_ctx(args) -> str:
    _require(args, "model")
    model = _load_model(_data_path(args.model), "transformer_lm")
    documents = _load_documents(args)
    try:
        history = finetune_lm(
            model, documents, epochs=args.epochs, mask_rate=args.mask_rate,
            batch_size=args.batch_size, learning_rate=args.lr, seed=args.seed,
            n_examples=args.n_examples,
        )
    except ValueError as exc:
        raise CommandError(str(exc))
    out = _out_dir(args)
    target = out / "encoder_finetuned.ckpt"
    save_transformer(model, target)
    final = history.joint[-1] if history.joint else float("nan")
    return (
        f"fine-tuned {model.model_id} for {args.epochs} epochs "
        f"(final loss {final:.4f}) -> {target}"
    )


def _cmd_embed(args) -> str:
    _require(args, "model")
    corpus, _ = _load_labeled(args)
    featurizer = _load_featurizer(_data_path(args.model), "pooled")
    batch = featurizer.featurize([r.text for r in corpus.records])
    out = _out_dir(args)
    target = out / "embeddings.csv"
    export_embeddings(target, [r.id for r in corpus.records], batch.vectors)
    return (
        f"embedded {len(batch)} requirements at dimension {batch.dimension} "
        f"({int(batch.degenerate.sum())} degenerate) -> {target}"
    )


def _cmd_train(args) -> str:
    _require(args, "embedding")
    corpus, _ = _load_labeled(args)
    featurizer = _load_featurizer(_data_path(args.embedding), args.mode)
    head = HeadConfig(
        mode=args.mode, output=args.output, epochs=args.epochs,
        batch_size=args.batch_size, patience=min(args.patience, args.epochs),
        learning_rate=args.lr, seed=args.seed,
    )
    records = corpus.records
    features = featurizer.featurize([r.text for r in records])
    efforts = np.array([r.effort for r in records])
    try:
        fit_idx, val_idx = carve_validation(records, args.val_fraction, args.seed)
        estimator = EstimatorModel(head, features.dimension, source=featurizer.describe())
        history = train_estimator(
            estimator,
            features.select(fit_idx), efforts[fit_idx],
            features.select(val_idx), efforts[val_idx],
        )
    except ValueError as exc:
        raise CommandError(str(exc))
    out = _out_dir(args)
    target = out / "estimator.ckpt"
    save_estimator(estimator, target, history)
    (out / "history.json").write_text(
        json.dumps({
            "train_loss": history.train_loss,
            "val_mae": history.val_mae,
            "best_epoch": history.best_epoch,
            "stop_reason": history.stop_reason,
        }, indent=2) + "\n",
        encoding="utf-8",
    )
    return (
        f"trained {estimator.model_id}: best val MAE "
        f"{history.best_val_mae:.4f} at epoch {history.best_epoch} "
        f"({history.stop_reason}) -> {target}"
    )


def _cmd_evaluate(args) -> str:
    _require(args, "experiment", "embedding")
    if args.experiment not in EXPERIMENTS:
        raise CommandError(
            f"unknown experiment {args.experiment!r}; pick one of {sorted(EXPERIMENTS)}"
        )
    corpus, corpus_path = _load_labeled(args)
    featurizer = _load_featurizer(_data_path(args.embedding), args.mode)
    head = HeadConfig(
        mode=args.mode, output=EXPERIMENTS[args.experiment]["output"],
        epochs=args.epochs, batch_size=args.batch_size,
        patience=min(args.patience, args.epochs),
        learning_rate=args.lr, seed=args.seed,
    )
    try:
        if args.by_project:
            plan = leave_one_project_out(corpus)
        else:
            plan = kfold_split(corpus, k=args.kfold, seed=args.seed)
        report = run_experiment(
            args.experiment, corpus, plan, featurizer, head,
            val_fraction=args.val_fraction, seed=args.seed,
        )
    except ValueError as exc:
        raise CommandError(str(exc))
    report.provenance["corpus_sha256"] = file_sha256(corpus_path)
    out = _out_dir(args) / args.experiment
    write_fold_report(report, out)
    if args.by_project:
        write_project_table(corpus, report, out, include_average=True)
    mean_mae, std_mae = report.aggregate["mae"]
    return (
        f"{args.experiment} over {len(report.folds)} rounds: "
        f"MAE {mean_mae:.2f} +/- {std_mae:.2f} -> {out}"
    )


def _cmd_predict(args) -> str:
    _require(args, "model", "embedding", "text")
    return json.dumps(_load_service(args).estimate(args.text))


def _cmd_serve(args) -> str:
    _require(args, "model", "embedding")
    service = _load_service(args)
    try:
        serve_forever(
            service, args.bind,
            announce=lambda addr: print(
                f"serving {service.estimator.model_id} on http://{addr[0]}:{addr[1]}/estimate",
                flush=True,
            ),
        )
    except (ValueError, OSError) as exc:
        raise CommandError(str(exc))
    return "server stopped"


def _cmd_report(args) -> str:
    _require(args, "run")
    try:
        bundle = emit_report(_data_path(args.run), args.out if args.out != "out" else None)
    except ValueError as exc:
        raise CommandError(str(exc))
    return f"report bundle -> {bundle}"


_HANDLERS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "pretrain-static": _cmd_pretrain_static,
    "finetune-static": _cmd_finetune_static,
    "pretrain-ctx": _cmd_pretrain_ctx,
    "finetune-ctx": _cmd_finetune_ctx,
    "embed": _cmd_embed,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storypointer",
        description="Analogy-based effort estimation from requirement texts.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, *flag_groups: str) -> argparse.ArgumentParser:
        # no prefix matching: --mode must never silently bind to --model
        sub = commands.add_parser(name, help=help_text, allow_abbrev=False)
        sub.add_argument("--config", help="flat key=value config file; flags win")
        sub.add_argument("--seed", type=int)
        sub.add_argument("--out", help="output directory")
        if "corpus" in flag_groups:
            sub.add_argument("--corpus", help="labeled corpus (csv or jsonl)")
        if "unlabeled" in flag_groups:
            sub.add_argument("--unlabeled", help="unlabeled documents (jsonl or text)")
        if "static" in flag_groups:
            sub.add_argument("--embed-mode", choices=("cbow", "skipgram"))
            sub.add_argument("--dimension", type=int)
            sub.add_argument("--window", type=int)
            sub.add_argument("--negatives", type=int)
            sub.add_argument("--min-count", type=int)
        if "ctx" in flag_groups:
            sub.add_argument("--vocab-size", type=int)
            sub.add_argument("--layers", type=int)
            sub.add_argument("--hidden", type=int)
            sub.add_argument("--heads", type=int)
            sub.add_argument("--ff", type=int)
            sub.add_argument("--max-len", type=int)
        if "lm-train" in flag_groups:
            sub.add_argument("--mask-rate", type=float)
            sub.add_argument("--n-examples", type=int)
        if "training" in flag_groups:
            sub.add_argument("--epochs", type=int)
            sub.add_argument("--batch-size", type=int)
            sub.add_argument("--lr", type=float)
        if "head" in flag_groups:
            sub.add_argument("--mode", choices=("sequence", "pooled"))
            sub.add_argument("--patience", type=int)
            sub.add_argument("--val-fraction", type=float)
        if "model" in flag_groups:
            sub.add_argument("--model", help="model checkpoint path")
        if "embedding" in flag_groups:
            sub.add_argument("--embedding", help="embedding model checkpoint")
        return sub

    command("ingest", "clean and store a labeled corpus", "corpus")
    command("stats", "summarize a labeled corpus", "corpus")
    command("pretrain-static", "train static word embeddings",
            "corpus", "unlabeled", "static", "training")
    command("finetune-static", "continue static training on new text",
            "model", "unlabeled", "training")
    command("pretrain-ctx", "pretrain the contextual encoder",
            "corpus", "unlabeled", "ctx", "lm-train", "training")
    command("finetune-ctx", "continue encoder pretraining on new text",
            "model", "corpus", "unlabeled", "lm-train", "training")
    command("embed", "export pooled embeddings for a labeled corpus",
            "model", "corpus")
    train = command("train", "train an estimator head on the full corpus",
                    "embedding", "corpus", "training", "head")
    train.add_argument("--output", choices=("linear", "softmax"))
    evaluate = command("evaluate", "cross-validated experiment",
                       "embedding", "corpus", "training", "head")
    evaluate.add_argument("--experiment", choices=sorted(EXPERIMENTS))
    evaluate.add_argument("--kfold", type=int)
    evaluate.add_argument("--by-project", action="store_true", default=None)
    predict = command("predict", "estimate one requirement", "model", "embedding")
    predict.add_argument("--text", help="requirement text")
    serve = command("serve", "run the estimation endpoint", "model", "embedding")
    serve.add_argument("--bind", help="HOST:PORT")
    report = command("report", "bundle evaluation outputs")
    report.add_argument("--run", help="directory holding evaluation outputs")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args)
        print(_HANDLERS[args.command](args))
        return 0
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
