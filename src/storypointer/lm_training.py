"""Masked-language-model and next-sentence pretraining loops.

The joint objective is mean cross entropy over masked positions plus
cross entropy on the sentence-pair label. Fine-tuning on a new corpus
reuses the identical objective with the vocabulary left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .corpus import UnlabeledCorpus
from .kernel import Adam, RngStream, Tensor, clip_gradients, cross_entropy, no_grad
from .pretrain_data import PretrainExample, create_pretraining_data
from .transformer import TransformerModel
from .wordpiece import PAD_ID

MAX_GRAD_NORM = 1.0  # global gradient-norm bound for every optimizer step


@dataclass
class PretrainHistory:
    joint: List[float] = field(default_factory=list)
    mlm: List[float] = field(default_factory=list)
    nsp: List[float] = field(default_factory=list)

    def record(self, joint: float, mlm: float, nsp: float) -> None:
        self.joint.append(joint)
        self.mlm.append(mlm)
        self.nsp.append(nsp)


def _batch_arrays(batch: Sequence[PretrainExample]):
    ids = np.array([e.token_ids for e in batch], dtype=np.int64)
    segments = np.array([e.segment_ids for e in batch], dtype=np.int64)
    # Appended padding cannot change real-token representations, so the
    # batch is trimmed to its longest real sequence purely for speed.
    lengths = (ids != PAD_ID).sum(axis=1)
    seq_len = max(2, int(lengths.max()))
    return ids[:, :seq_len], segments[:, :seq_len], seq_len


def _masked_targets(batch: Sequence[PretrainExample], seq_len: int) -> Tuple[np.ndarray, np.ndarray]:
    """Masked positions flattened over (batch, seq_len), and their labels."""
    flat_positions = []
    labels = []
    for row, example in enumerate(batch):
        for pos, label in zip(example.masked_positions, example.masked_labels):
            flat_positions.append(row * seq_len + pos)
            labels.append(label)
    return np.array(flat_positions, dtype=np.int64), np.array(labels, dtype=np.int64)


def batch_loss(
    model: TransformerModel,
    batch: Sequence[PretrainExample],
    train: bool = False,
    rng: Optional[RngStream] = None,
) -> Tuple[Tensor, float, float]:
    """Joint loss tensor plus float MLM and NSP components."""
    if not batch:
        raise ValueError("empty batch")
    ids, segments, seq_len = _batch_arrays(batch)
    outputs = model.encode(ids, segments, train=train, rng=rng)
    final = outputs[-1]

    flat_positions, labels = _masked_targets(batch, seq_len)
    if not labels.size:
        raise ValueError("batch contains no masked positions")
    mlm = cross_entropy(model.mlm_logits(final, flat_positions), labels)

    nsp_labels = np.array([1 if e.is_next else 0 for e in batch], dtype=np.int64)
    nsp = cross_entropy(model.nsp_logits(final), nsp_labels)

    joint = mlm + nsp
    return joint, float(mlm.item()), float(nsp.item())


def evaluate_pretraining(
    model: TransformerModel, examples: Sequence[PretrainExample], batch_size: int = 32,
) -> Tuple[float, float, float]:
    """Mean (joint, mlm, nsp) loss without touching gradients."""
    if not examples:
        raise ValueError("no examples to evaluate")
    totals = np.zeros(3)
    count = 0
    with no_grad():
        for start in range(0, len(examples), batch_size):
            batch = examples[start:start + batch_size]
            joint, mlm, nsp = batch_loss(model, batch, train=False)
            totals += np.array([float(joint.item()), mlm, nsp]) * len(batch)
            count += len(batch)
    return tuple(totals / count)


def masked_token_accuracy(
    model: TransformerModel, examples: Sequence[PretrainExample], batch_size: int = 32,
) -> float:
    """Fraction of masked positions whose argmax prediction is the original token."""
    hits = 0
    total = 0
    with no_grad():
        for start in range(0, len(examples), batch_size):
            batch = examples[start:start + batch_size]
            ids, segments, seq_len = _batch_arrays(batch)
            final = model.encode(ids, segments)[-1]
            flat_positions, labels = _masked_targets(batch, seq_len)
            if not labels.size:
                continue
            logits = model.mlm_logits(final, flat_positions)
            predicted = np.argmax(logits.numpy(), axis=-1)
            hits += int((predicted == labels).sum())
            total += len(labels)
    if total == 0:
        raise ValueError("no masked positions in the evaluation set")
    return hits / total


def pretrain(
    model: TransformerModel,
    examples: Sequence[PretrainExample],
    epochs: int,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> PretrainHistory:
    """Train the model in place; history holds per-epoch mean losses."""
    if not examples:
        raise ValueError("no pretraining examples")
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    examples = list(examples)
    optimizer = Adam(model.params, lr=learning_rate)
    stream = RngStream(seed)
    history = PretrainHistory()
    for epoch in range(epochs):
        epoch_rng = stream.child(f"epoch{epoch}")
        order = epoch_rng.permutation(len(examples))
        sums = np.zeros(3)
        seen = 0
        for start in range(0, len(examples), batch_size):
            batch = [examples[i] for i in order[start:start + batch_size]]
            optimizer.zero_grad()
            joint, mlm, nsp = batch_loss(model, batch, train=True, rng=epoch_rng)
            joint.backward()
            clip_gradients(model.params.values(), MAX_GRAD_NORM)
            optimizer.step()
            sums += np.array([float(joint.item()), mlm, nsp]) * len(batch)
            seen += len(batch)
        history.record(*(sums / seen))
    return history


def finetune_lm(
    model: TransformerModel,
    corpus: UnlabeledCorpus,
    epochs: int,
    mask_rate: float = 0.15,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    seed: int = 0,
    n_examples: Optional[int] = None,
) -> PretrainHistory:
    """Continue pretraining on a new corpus with the vocabulary frozen.

    Zero epochs is a no-op that leaves every parameter bitwise intact.
    """
    if epochs == 0:
        return PretrainHistory()
    examples = create_pretraining_data(
        corpus, model.vocab, mask_rate=mask_rate, seed=seed,
        max_len=model.config.max_len, n_examples=n_examples,
    )
    return pretrain(
        model, examples, epochs=epochs, batch_size=batch_size,
        learning_rate=learning_rate, seed=seed,
    )
