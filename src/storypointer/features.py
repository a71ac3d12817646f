"""Turning requirement texts into estimator inputs.

Two input shapes are supported everywhere downstream: `sequence` keeps
one vector per token (time dimension intact, padded with a mask) and
`pooled` collapses each text to a single mean vector. Both featurizers
clean text themselves, so raw and pre-cleaned inputs produce identical
features.

A text is degenerate when nothing usable survives: no in-vocabulary
word for static embeddings, no real WordPiece token for contextual
ones. It is flagged in `FeatureBatch.degenerate` and still gets a
vector. Pooled static features fall back to the zero vector, pooled
contextual features to the [CLS] row of the pooled layer; in sequence
mode the row is all padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .corpus import clean_text, tokenize_words
from .static_embed import StaticEmbeddingModel, embed_word, mean_pool_sentence
from .transformer import PoolingStrategy, TransformerModel, pool_sentence
from .wordpiece import N_SPECIALS, tokenize_wordpiece

MODES = ("sequence", "pooled")


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


def _assemble_sequence(rows: List[List[np.ndarray]], dimension: int) -> Tuple[np.ndarray, np.ndarray]:
    longest = max((len(r) for r in rows), default=0)
    steps = max(1, longest)
    vectors = np.zeros((len(rows), steps, dimension))
    mask = np.zeros((len(rows), steps))
    for i, row in enumerate(rows):
        for t, vec in enumerate(row):
            vectors[i, t] = vec
            mask[i, t] = 1.0
    return vectors, mask


class StaticFeaturizer:
    """Features from a static (context-free) embedding table."""

    def __init__(self, model: StaticEmbeddingModel, mode: str = "sequence",
                 max_tokens: int = 100):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.model = model
        self.mode = mode
        self.max_tokens = max_tokens

    @property
    def dimension(self) -> int:
        return self.model.config.dimension

    def describe(self) -> dict:
        return {
            "kind": "static",
            "model_id": self.model.model_id,
            "mode": self.mode,
            "dimension": self.dimension,
            "max_tokens": self.max_tokens,
        }

    def featurize(self, texts: Sequence[str]) -> FeatureBatch:
        if self.mode == "pooled":
            vectors = np.zeros((len(texts), self.dimension))
            degenerate = np.zeros(len(texts), dtype=bool)
            for i, text in enumerate(texts):
                pooled = mean_pool_sentence(self.model, tokenize_words(clean_text(text)))
                vectors[i] = pooled.vector
                degenerate[i] = pooled.degenerate
            return FeatureBatch("pooled", vectors, None, degenerate)

        rows: List[List[np.ndarray]] = []
        degenerate = np.zeros(len(texts), dtype=bool)
        for i, text in enumerate(texts):
            row: List[np.ndarray] = []
            for word in tokenize_words(clean_text(text))[: self.max_tokens]:
                vec = embed_word(self.model, word)
                if vec is not None:
                    row.append(vec)
            if not row:
                degenerate[i] = True
            rows.append(row)
        vectors, mask = _assemble_sequence(rows, self.dimension)
        return FeatureBatch("sequence", vectors, mask, degenerate)


class ContextualFeaturizer:
    """Features from a frozen bidirectional encoder."""

    def __init__(self, model: TransformerModel, mode: str = "sequence",
                 strategy: PoolingStrategy = PoolingStrategy(), chunk_size: int = 16):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.model = model
        self.mode = mode
        self.strategy = strategy
        self.chunk_size = chunk_size

    @property
    def dimension(self) -> int:
        return self.model.config.hidden

    def describe(self) -> dict:
        return {
            "kind": "contextual",
            "model_id": self.model.model_id,
            "mode": self.mode,
            "dimension": self.dimension,
            "layer": self.strategy.layer,
        }

    def _frame(self, text: str) -> List[int]:
        ids, _ = tokenize_wordpiece(self.model.vocab, clean_text(text))
        limit = self.model.config.max_len
        if len(ids) > limit:
            ids = ids[: limit - 1] + [ids[-1]]  # keep the trailing separator
        return ids

    def featurize(self, texts: Sequence[str]) -> FeatureBatch:
        framed = [self._frame(text) for text in texts]
        degenerate = np.zeros(len(texts), dtype=bool)
        pooled_rows = np.zeros((len(texts), self.dimension))
        sequence_rows: List[List[np.ndarray]] = [[] for _ in texts]

        for start in range(0, len(framed), self.chunk_size):
            chunk = framed[start:start + self.chunk_size]
            width = max(len(ids) for ids in chunk)
            batch = np.zeros((len(chunk), width), dtype=np.int64)
            for j, ids in enumerate(chunk):
                batch[j, : len(ids)] = ids
            outputs = self.model.encode(batch)
            layer = outputs[self.strategy.resolve_layer(len(outputs))].numpy()
            for j in range(len(chunk)):
                i = start + j
                if self.mode == "pooled":
                    pooled_rows[i], degenerate[i] = pool_sentence(layer[j], batch[j])
                else:
                    real = batch[j] >= N_SPECIALS
                    sequence_rows[i] = list(layer[j][real])
                    degenerate[i] = not real.any()

        if self.mode == "pooled":
            return FeatureBatch("pooled", pooled_rows, None, degenerate)
        vectors, mask = _assemble_sequence(sequence_rows, self.dimension)
        return FeatureBatch("sequence", vectors, mask, degenerate)
