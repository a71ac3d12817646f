"""Command-line pipeline driver.

Subcommands follow the pipeline order: ingest and stats inspect the
labeled corpus; pretrain-static / pretrain-ctx build embedding models;
finetune-* continue them on a new corpus; embed exports pooled vectors;
train fits an estimator head; evaluate runs a cross-validated
experiment; predict and serve answer for single requirements; report
bundles everything written by earlier commands.

Every flag can also come from a flat `key=value` config file passed via
--config, read and checked as the flag would be; explicit flags win
over config values. A failed command, config value or file operation
prints one `error:` line and exits with status 1.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .corpus import (
    LabeledCorpus,
    UnlabeledCorpus,
    corpus_stats,
    kfold_split,
    leave_one_project_out,
    load_labeled,
    load_unlabeled,
    read_utf8,
    save_jsonl,
)
from .estimator import (
    OUTPUTS,
    EstimatorModel,
    HeadConfig,
    estimator_from_parts,
    save_estimator,
    train_estimator,
)
from .experiments import EXPERIMENTS, carve_validation, run_experiment
from .features import MODES, ContextualFeaturizer, StaticFeaturizer
from .kernel.checkpoint import load_checkpoint, write_file
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
    EMBED_MODES,
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


def _boolean(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


@dataclasses.dataclass(frozen=True)
class _Flag:
    """A flag's one declaration: how a value is read and checked, and its default.

    The parser, the config-file conversion and the defaults all come from here.
    """

    type: Callable[[str], object] = str
    default: object = None
    choices: Optional[Tuple[str, ...]] = None
    help: Optional[str] = None


_FLAGS: Dict[str, _Flag] = {
    "seed": _Flag(int, 0),
    "out": _Flag(default="out", help="output directory"),
    "corpus": _Flag(help="labeled corpus (csv or jsonl)"),
    "unlabeled": _Flag(help="unlabeled documents (jsonl or text)"),
    "embed_mode": _Flag(default="cbow", choices=EMBED_MODES),
    "dimension": _Flag(int, 100),
    "window": _Flag(int, 5),
    "negatives": _Flag(int, 5),
    "min_count": _Flag(int, 1),
    "vocab_size": _Flag(int, 2000),
    "layers": _Flag(int, 4),
    "hidden": _Flag(int, 128),
    "heads": _Flag(int, 4),
    "ff": _Flag(int, 512),
    "max_len": _Flag(int, 100),
    "mask_rate": _Flag(float, 0.15),
    "n_examples": _Flag(int),
    "epochs": _Flag(int),  # epochs, batch_size and lr: per command, below
    "batch_size": _Flag(int),
    "lr": _Flag(float),
    "mode": _Flag(default="sequence", choices=MODES),
    "patience": _Flag(int, 5),
    "val_fraction": _Flag(float, 0.1),
    "model": _Flag(help="model checkpoint path"),
    "embedding": _Flag(help="embedding model checkpoint"),
    "output": _Flag(default="linear", choices=OUTPUTS),
    "experiment": _Flag(choices=tuple(sorted(EXPERIMENTS))),
    "kfold": _Flag(int, 10),
    "by_project": _Flag(_boolean, False),
    "text": _Flag(help="requirement text"),
    "bind": _Flag(default="127.0.0.1:8080", help="HOST:PORT"),
    "run": _Flag(help="directory holding evaluation outputs"),
}

_COMMAND_DEFAULTS: Dict[str, Dict[str, object]] = {
    "pretrain-static": {"epochs": 5, "lr": 0.025},
    "finetune-static": {"epochs": 5},
    "pretrain-ctx": {"epochs": 5, "lr": 1e-3, "batch_size": 32},
    "finetune-ctx": {"epochs": 5, "lr": 1e-3, "batch_size": 32},
    "train": {"epochs": 20, "lr": 0.002, "batch_size": 128},
    "evaluate": {"epochs": 20, "lr": 0.002, "batch_size": 128},
    "report": {"out": None},  # None: the bundle goes to <run>/bundle
}


class CommandError(Exception):
    """A user-facing failure: printed to stderr, exit status 1."""


def _read_config_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    try:
        text = read_utf8(path)
    except (OSError, ValueError) as exc:
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


def _convert(key: str, raw: str):
    """A config value read and checked as its flag's value would be."""
    flag = _FLAGS[key]
    try:
        value = flag.type(raw)
    except ValueError as exc:
        raise CommandError(f"config value {key}={raw!r}: {exc}")
    if flag.choices is not None and value not in flag.choices:
        raise CommandError(f"config value {key}={raw!r}: pick one of {list(flag.choices)}")
    return value


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file, then from defaults.

    A config file may carry keys for several subcommands; keys the
    current command has no flag for are ignored, unknown keys error.
    """
    given = vars(args)
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in _FLAGS:
                raise CommandError(f"unknown config key {key!r}")
            if key in given and given[key] is None:
                setattr(args, key, _convert(key, raw))
    command_defaults = _COMMAND_DEFAULTS.get(args.command, {})
    for key, value in given.items():
        if value is None and key in _FLAGS:
            setattr(args, key, command_defaults.get(key, _FLAGS[key].default))
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
        try:
            return _BUILDERS[kind](params, meta, sections)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    except (OSError, ValueError) as exc:
        raise CommandError(f"cannot load model: {exc}")


def _load_featurizer(path: Path, mode: str):
    model = _load_model(path, "static_embedding", "transformer_lm")
    return _FEATURIZERS[type(model)](model, mode=mode)


def _load_service(args) -> EstimateService:
    """The estimator from --model paired with a featurizer for --embedding."""
    estimator = _load_model(_data_path(args.model), "estimator")
    featurizer = _load_featurizer(_data_path(args.embedding), estimator.config.mode)
    return EstimateService(estimator, featurizer)


# ---- subcommand bodies ------------------------------------------------


def _cmd_ingest(args) -> str:
    corpus, path = _load_labeled(args)
    out = Path(args.out)
    target = out / "corpus.jsonl"
    save_jsonl(corpus, target)
    if corpus.rejections:
        write_file(out / "rejections.txt",
                   "".join(f"{r.where}: {r.reason}\n" for r in corpus.rejections))
    return (
        f"ingested {len(corpus.records)} records from {path} "
        f"({len(corpus.rejections)} rejected, {corpus.degenerate_count} degenerate, "
        f"{corpus.over_range} over-range) -> {target}"
    )


def _cmd_stats(args) -> str:
    corpus, path = _load_labeled(args)
    out = Path(args.out)
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
    model = train_static(documents, config)
    target = Path(args.out) / "static.ckpt"
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
    model = finetune_static(model, documents, extra_epochs=args.epochs, seed=args.seed)
    target = Path(args.out) / "static_finetuned.ckpt"
    save_static(model, target)
    return (
        f"fine-tuned on {len(documents.documents)} documents "
        f"(vocabulary {grown} -> {len(model.vocabulary)}) -> {target}"
    )


def _cmd_pretrain_ctx(args) -> str:
    documents = _load_documents(args)
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
    target = Path(args.out) / "encoder.ckpt"
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
    history = finetune_lm(
        model, documents, epochs=args.epochs, mask_rate=args.mask_rate,
        batch_size=args.batch_size, learning_rate=args.lr, seed=args.seed,
        n_examples=args.n_examples,
    )
    target = Path(args.out) / "encoder_finetuned.ckpt"
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
    target = Path(args.out) / "embeddings.csv"
    export_embeddings(target, [r.id for r in corpus.records], batch.vectors)
    return (
        f"embedded {len(batch)} requirements at dimension {batch.dimension} "
        f"({int(batch.degenerate.sum())} degenerate) -> {target}"
    )


def _head_config(args, output: str) -> HeadConfig:
    """The head the flags describe; patience is capped at the epoch count."""
    return HeadConfig(
        mode=args.mode, output=output, epochs=args.epochs, batch_size=args.batch_size,
        patience=min(args.patience, args.epochs), learning_rate=args.lr, seed=args.seed,
    )


def _cmd_train(args) -> str:
    _require(args, "embedding")
    corpus, _ = _load_labeled(args)
    featurizer = _load_featurizer(_data_path(args.embedding), args.mode)
    head = _head_config(args, args.output)
    records = corpus.records
    features = featurizer.featurize([r.text for r in records])
    efforts = np.array([r.effort for r in records])
    fit_idx, val_idx = carve_validation(records, args.val_fraction, args.seed)
    estimator = EstimatorModel(head, features.dimension, source=featurizer.describe())
    history = train_estimator(
        estimator,
        features.select(fit_idx), efforts[fit_idx],
        features.select(val_idx), efforts[val_idx],
    )
    out = Path(args.out)
    target = out / "estimator.ckpt"
    save_estimator(estimator, target, history)
    write_file(out / "history.json", json.dumps(dataclasses.asdict(history), indent=2) + "\n")
    return (
        f"trained {estimator.model_id}: best val MAE "
        f"{history.best_val_mae:.4f} at epoch {history.best_epoch} "
        f"({history.stop_reason}) -> {target}"
    )


def _cmd_evaluate(args) -> str:
    _require(args, "experiment", "embedding")
    corpus, corpus_path = _load_labeled(args)
    featurizer = _load_featurizer(_data_path(args.embedding), args.mode)
    head = _head_config(args, EXPERIMENTS[args.experiment]["output"])
    if args.by_project:
        plan = leave_one_project_out(corpus)
    else:
        plan = kfold_split(corpus, k=args.kfold, seed=args.seed)
    report = run_experiment(
        args.experiment, corpus, plan, featurizer, head,
        val_fraction=args.val_fraction, seed=args.seed,
    )
    report.provenance["corpus_sha256"] = file_sha256(corpus_path)
    out = Path(args.out) / args.experiment
    write_fold_report(report, out)
    if args.by_project:
        write_project_table(corpus, report, out)
    mean_mae, std_mae = report.aggregate["mae"]
    return (
        f"{args.experiment} over {len(report.folds)} rounds: "
        f"MAE {mean_mae:.2f} +/- {std_mae:.2f} -> {out}"
    )


def _cmd_predict(args) -> str:
    _require(args, "model", "embedding", "text")
    estimate = _load_service(args).estimate(args.text)
    try:
        return json.dumps(estimate, allow_nan=False)
    except ValueError:  # NaN and infinity have no JSON form
        raise CommandError(
            f"the model estimated a non-finite effort ({estimate['effort']})") from None


def _cmd_serve(args) -> str:
    _require(args, "model", "embedding")
    service = _load_service(args)
    serve_forever(
        service, args.bind,
        announce=lambda addr: print(
            f"serving {service.estimator.model_id} on http://{addr[0]}:{addr[1]}/estimate",
            flush=True,
        ),
    )
    return "server stopped"


def _cmd_report(args) -> str:
    _require(args, "run")
    bundle = emit_report(_data_path(args.run), args.out)
    return f"report bundle -> {bundle}"


_TRAINING = ("epochs", "batch_size", "lr")
_HEAD = ("mode", "patience", "val_fraction")

# every subcommand's handler, help line and flags besides --config
_COMMANDS: Dict[str, Tuple[Callable[[argparse.Namespace], str], str, Tuple[str, ...]]] = {
    "ingest": (_cmd_ingest, "clean and store a labeled corpus", ("out", "corpus")),
    "stats": (_cmd_stats, "summarize a labeled corpus", ("out", "corpus")),
    "pretrain-static": (
        _cmd_pretrain_static, "train static word embeddings",
        ("seed", "out", "corpus", "unlabeled", "embed_mode", "dimension", "window", "negatives",
         "min_count", "epochs", "lr")),
    # the learning rate comes from the checkpoint
    "finetune-static": (_cmd_finetune_static, "continue static training on new text",
                        ("seed", "out", "unlabeled", "epochs", "model")),
    "pretrain-ctx": (
        _cmd_pretrain_ctx, "pretrain the contextual encoder",
        ("seed", "out", "corpus", "unlabeled", "vocab_size", "layers", "hidden", "heads", "ff",
         "max_len", "mask_rate", "n_examples", *_TRAINING)),
    "finetune-ctx": (_cmd_finetune_ctx, "continue encoder pretraining on new text",
                     ("seed", "out", "corpus", "unlabeled", "mask_rate", "n_examples",
                      *_TRAINING, "model")),
    "embed": (_cmd_embed, "export pooled embeddings for a labeled corpus",
              ("out", "corpus", "model")),
    "train": (_cmd_train, "train an estimator head on the full corpus",
              ("seed", "out", "corpus", *_TRAINING, *_HEAD, "embedding", "output")),
    "evaluate": (_cmd_evaluate, "cross-validated experiment",
                 ("seed", "out", "corpus", *_TRAINING, *_HEAD, "embedding", "experiment",
                  "kfold", "by_project")),
    "predict": (_cmd_predict, "estimate one requirement", ("model", "embedding", "text")),
    "serve": (_cmd_serve, "run the estimation endpoint", ("model", "embedding", "bind")),
    "report": (_cmd_report, "bundle evaluation outputs", ("out", "run")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storypointer",
        description="Analogy-based effort estimation from requirement texts.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        # no prefix matching: --mode must never silently bind to --model
        sub = commands.add_parser(name, help=help_text, allow_abbrev=False)
        sub.add_argument("--config", help="flat key=value config file; flags win")
        # argparse defaults stay None so an unset flag is distinguishable
        # from an explicitly passed default; _apply_config fills them in
        for key in flags:
            flag, option = _FLAGS[key], "--" + key.replace("_", "-")
            if flag.type is _boolean:
                sub.add_argument(option, action="store_true", default=None, help=flag.help)
            else:
                sub.add_argument(option, type=flag.type, choices=flag.choices, help=flag.help)
    return parser


def _keep_freed_memory() -> None:
    """Have glibc keep freed arrays on the heap for the next allocation.

    By default glibc returns a freed array above its mmap threshold to the
    kernel, and trims the top of the heap once it is free, so each training
    step's forward pass page-faults its activations in again. Fixing both
    thresholds keeps them: each array up to 32 MiB comes from the heap, and
    up to 1 GiB of free heap stays mapped. Both are needed, since setting
    either one turns off glibc's adaptive mmap threshold. Off glibc, or
    without a `mallopt` symbol, the allocator is left as it is.
    """
    libc = ctypes.CDLL(None) if platform.libc_ver()[0] == "glibc" else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's 64-bit maximum, above any op's array
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: above a training step's freed activations


def main(argv: Optional[List[str]] = None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        print(_COMMANDS[args.command][0](_apply_config(args)))
        return 0
    except (CommandError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
