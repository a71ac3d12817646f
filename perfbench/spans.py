"""Spans around the calls into each storypointer layer, from outside.

`Tracer.install` replaces public functions and methods with timing
wrappers and `Tracer.restore` puts the originals back. Modules bind
imported names at import time, so a function is patched under every
name a caller looks it up by (`cli.load_checkpoint` and
`static_embed.load_checkpoint` are separate bindings of one function).

Spans are kept in memory as (name, start, end, parent, run id) and
written out at the end of the run; per-layer metrics are computed from
them after the traced work is done.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# Layers in the order they are reported; a span's layer is the part of
# its name before the first dot.
LAYERS = ("cli", "corpus", "checkpoint", "static_embed", "wordpiece", "pretrain_data",
          "lm_training", "transformer", "features", "estimator", "experiments",
          "kernel", "reports")


class Tracer:
    def __init__(self):
        self.spans: List[list] = []       # [name, start, end, parent index, run id]
        self.counts: Dict[tuple, float] = defaultdict(float)  # (run id, name) -> value
        self.run_id = 0
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ---- recording --------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.run_id, name)] += value

    def wrap(self, owner, attr: str, name, after: Optional[Callable] = None) -> None:
        """Patch owner.attr; `name` is a span name or a function of the call
        arguments returning one; `after(tracer, args, kwargs, result)` adds
        counts once the span is closed."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.open(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- the storypointer call sites ----------------------------------

    def install(self) -> None:
        from storypointer import (cli, estimator, experiments, features, lm_training,
                                  server, static_embed, transformer)
        from storypointer.kernel import LSTM, Adam, Tensor
        from storypointer.wordpiece import PAD_ID

        self.wrap(cli, "main", lambda args, kwargs: "cli." + args[0][0])
        self.wrap(cli, "load_labeled", "corpus.load")
        for module in (cli, static_embed, transformer, estimator):
            self.wrap(module, "load_checkpoint", "checkpoint.load")
        for module in (static_embed, transformer, estimator):
            self.wrap(module, "save_checkpoint", "checkpoint.save")
        self.wrap(cli, "train_static", "static_embed.train")
        self.wrap(cli, "build_wordpiece_vocab", "wordpiece.build")
        self.wrap(features, "tokenize_wordpiece", "wordpiece.tokenize")
        self.wrap(cli, "create_pretraining_data", "pretrain_data.create",
                  after=lambda t, a, k, r: t.count("pretrain_data.examples", len(r)))
        self.wrap(cli, "pretrain", "lm_training.train", after=_count_pretrain)
        self.wrap(lm_training, "batch_loss", "lm_training.batch_loss")

        def encode_name(args, kwargs):
            return "transformer.encode_train" if kwargs.get("train") else "transformer.encode_infer"

        def encode_after(tracer, args, kwargs, result):
            ids = np.asarray(args[1])
            tracer.count("transformer.positions", ids.size)
            tracer.count("transformer.pad_positions", int((ids == PAD_ID).sum()))

        self.wrap(transformer.TransformerModel, "encode", encode_name, after=encode_after)
        for cls in (features.StaticFeaturizer, features.ContextualFeaturizer):
            self.wrap(cls, "featurize", "features.featurize", after=_count_features)
        for module in (cli, experiments):
            self.wrap(module, "train_estimator", "estimator.train",
                      after=lambda t, a, k, r: t.count("estimator.epochs_run", len(r.val_mae)))
        for module in (experiments, server):
            self.wrap(module, "predict", "estimator.predict")
        self.wrap(cli, "run_experiment", "experiments.run",
                  after=lambda t, a, k, r: t.count("experiments.folds", len(r.folds)))
        self.wrap(cli, "write_fold_report", "reports.write")

        def matmul_after(tracer, args, kwargs, result):
            tracer.count("kernel.matmul_flop", 2.0 * result.data.size * np.shape(args[0].data)[-1])

        self.wrap(Tensor, "__matmul__", "kernel.matmul", after=matmul_after)
        self.wrap(Tensor, "gelu", "kernel.gelu")
        self.wrap(transformer, "layer_norm", "kernel.layer_norm")
        self.wrap(transformer, "softmax", "kernel.softmax")
        self.wrap(LSTM, "step", "kernel.lstm_step")
        self.wrap(Tensor, "backward", "kernel.backward")
        self.wrap(Adam, "step", "kernel.adam_step")

    # ---- results ------------------------------------------------------

    def run_metrics(self, run_id: int) -> Dict[str, float]:
        """Inclusive time and call count per span name, self time per
        layer, and the counts recorded for one run id."""
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            duration = end - start
            out[name + "_s"] += duration
            out[name + "_calls"] += 1
            out[name.split(".")[0] + ".self_s"] += duration - child_time[index]
            out["trace.spans"] += 1
        for (rid, name), value in self.counts.items():
            if rid == run_id:
                out[name] += value
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": rid}) + "\n")


def _count_pretrain(tracer: Tracer, args, kwargs, result) -> None:
    examples = args[1] if len(args) > 1 else kwargs["examples"]
    epochs = kwargs.get("epochs", args[2] if len(args) > 2 else 0)
    tracer.count("lm_training.examples_seen", len(examples) * epochs)


def _count_features(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("features.texts", len(result))
    tracer.count("features.degenerate", int(result.degenerate.sum()))
    if result.mask is not None:
        tracer.count("features.steps", result.mask.size)
        tracer.count("features.pad_steps", result.mask.size - float(result.mask.sum()))
