"""Turning requirement texts into estimator inputs.

Two input shapes are supported everywhere downstream: `sequence` keeps
one vector per token (time dimension intact, padded with a mask) and
`pooled` collapses each text to a single mean vector. Both featurizers
clean text themselves, so raw and pre-cleaned inputs produce identical
features.

Each featurizer only picks a text's usable token vectors and its
fallback row; `_assemble` alone turns them into a batch. Static
embeddings use the in-vocabulary words, with a zero fallback; contextual
ones use the real WordPiece tokens of the penultimate encoder layer,
with its [CLS] row as the fallback. The encoder runs no block above that
layer, on chunks of texts taken in length order so that each chunk pads
little; every result is put back at its text's input index.

A text is degenerate when nothing usable survives. It is flagged in
`FeatureBatch.degenerate` and still gets a vector: its fallback row
when pooled, an all-padding row in sequence mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .corpus import clean_text, tokenize_words
from .kernel import no_grad
from .static_embed import StaticEmbeddingModel, embed_word
from .transformer import TransformerModel, pad_batch
from .wordpiece import N_SPECIALS, tokenize_wordpiece

MODES = ("sequence", "pooled")
MAX_TOKENS = 100  # words kept per text in static sequence features
CHUNK_SIZE = 16   # texts per encoder batch


@dataclass(frozen=True)
class FeatureBatch:
    mode: str
    vectors: np.ndarray          # pooled: (n, d); sequence: (n, t, d)
    mask: Optional[np.ndarray]   # sequence only: (n, t) with 1.0 on real steps
    degenerate: np.ndarray       # (n,) flags for texts with no usable tokens

    @property
    def dimension(self) -> int:
        return self.vectors.shape[-1]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def select(self, indices: Sequence[int]) -> "FeatureBatch":
        idx = np.asarray(indices, dtype=np.int64)
        return FeatureBatch(
            mode=self.mode,
            vectors=self.vectors[idx],
            mask=None if self.mask is None else self.mask[idx],
            degenerate=self.degenerate[idx],
        )


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _assemble(mode: str, rows: Sequence[Sequence[np.ndarray]],
              fallbacks: Sequence[np.ndarray], dimension: int) -> FeatureBatch:
    """The batch of texts whose usable token vectors are `rows`, k of them per text.

    Pooled: each text's mean vector, or its fallback row when k == 0.
    Sequence: the vectors padded to the longest text, with a mask.
    """
    degenerate = np.array([len(row) == 0 for row in rows], dtype=bool)
    if mode == "pooled":
        vectors = np.zeros((len(rows), dimension))
        for i, row in enumerate(rows):
            vectors[i] = np.mean(row, axis=0) if len(row) else fallbacks[i]
        return FeatureBatch(mode, vectors, None, degenerate)
    steps = max([1] + [len(row) for row in rows])
    vectors = np.zeros((len(rows), steps, dimension))
    mask = np.zeros((len(rows), steps))
    for i, row in enumerate(rows):
        if len(row):
            vectors[i, : len(row)] = row
            mask[i, : len(row)] = 1.0
    return FeatureBatch(mode, vectors, mask, degenerate)


class StaticFeaturizer:
    """Features from a static (context-free) embedding table."""

    def __init__(self, model: StaticEmbeddingModel, mode: str = "sequence"):
        self.model = model
        self.mode = _check_mode(mode)

    @property
    def dimension(self) -> int:
        return self.model.dimension

    def describe(self) -> dict:
        return {
            "kind": "static",
            "model_id": self.model.model_id,
            "mode": self.mode,
            "dimension": self.dimension,
            "max_tokens": MAX_TOKENS,
        }

    def featurize(self, texts: Sequence[str]) -> FeatureBatch:
        rows = []
        for text in texts:
            words = tokenize_words(clean_text(text))
            if self.mode == "sequence":
                words = words[:MAX_TOKENS]
            # table rows, not copies: the batch is the only copy
            rows.append([vec for vec in (embed_word(self.model, w) for w in words)
                         if vec is not None])
        return _assemble(self.mode, rows, np.zeros((len(texts), self.dimension)), self.dimension)


class ContextualFeaturizer:
    """Features from a frozen bidirectional encoder's penultimate layer.

    `featurize` frames every text, stable-sorts them by framed length and
    encodes chunks of CHUNK_SIZE in that order, running the first L - 1
    blocks only. The batch it returns is in input order. A text's padded
    length decides its chunk's matmul shapes, so the last bits of its
    features depend on the texts featurized with it.
    """

    def __init__(self, model: TransformerModel, mode: str = "sequence"):
        self.model = model
        self.mode = _check_mode(mode)

    @property
    def dimension(self) -> int:
        return self.model.config.hidden

    def describe(self) -> dict:
        return {
            "kind": "contextual",
            "model_id": self.model.model_id,
            "mode": self.mode,
            "dimension": self.dimension,
            "layer": None,  # None: the penultimate layer
        }

    def _frame(self, text: str) -> List[int]:
        ids = tokenize_wordpiece(self.model.vocab, clean_text(text))
        limit = self.model.config.max_len
        if len(ids) > limit:
            ids = ids[: limit - 1] + [ids[-1]]  # keep the trailing separator
        return ids

    def featurize(self, texts: Sequence[str]) -> FeatureBatch:
        framed = [self._frame(text) for text in texts]
        order = sorted(range(len(framed)), key=lambda i: len(framed[i]))
        rows: List[Optional[np.ndarray]] = [None] * len(framed)  # filled at input index
        fallbacks: List[Optional[np.ndarray]] = [None] * len(framed)
        penultimate = self.model.config.layers - 1
        with no_grad():  # the encoder is frozen: keep no graph of its activations
            for start in range(0, len(order), CHUNK_SIZE):
                chunk = order[start:start + CHUNK_SIZE]
                batch = pad_batch([framed[i] for i in chunk])
                layer = self.model.encode(batch, layers=penultimate)[-1].numpy()
                for j, i in enumerate(chunk):
                    rows[i] = layer[j][batch[j] >= N_SPECIALS]
                    fallbacks[i] = layer[j, 0]  # the [CLS] row
        return _assemble(self.mode, rows, fallbacks, self.dimension)
