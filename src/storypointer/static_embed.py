"""Context-free word embeddings: CBOW and skip-gram with negative sampling.

One embedding matrix pair per model: input vectors (the embeddings the
rest of the pipeline consumes) and output vectors (the sampled-softmax
side). Training is SGD with negatives drawn from the unigram^0.75
distribution, taken in chunks of CHUNK corpus positions: each chunk
gathers its context windows, scores every positive and negative in one
pass from the parameters as they were at the chunk's start, and
scatters the summed updates once per matrix. Fine-tuning extends the
vocabulary and continues training on the new corpus only, so words
absent from it keep bitwise-identical vectors.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import (
    PAD_WORD,
    UNK_WORD,
    UnlabeledCorpus,
    Vocabulary,
    clean_text,
    tokenize_words,
)
from .kernel import RngStream, parameter
from .kernel.optim import require_learning_rate
from .kernel.tensor import logistic
from .kernel.checkpoint import config_from_meta, load_checkpoint, require_kind, save_checkpoint

SPECIALS = (PAD_WORD, UNK_WORD)  # the first rows of every vocabulary, never embedded
EMBED_MODES = ("cbow", "skipgram")
NOISE_POWER = 0.75
# Positions per update step. Every update inside a chunk reads the
# parameters as they were at the chunk's start.
CHUNK = 64


@dataclass(frozen=True)
class StaticTrainConfig:
    mode: str = "cbow"  # one of EMBED_MODES
    dimension: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in EMBED_MODES:
            raise ValueError(f"mode must be one of {EMBED_MODES}, got {self.mode!r}")
        if self.dimension < 1 or self.window < 1 or self.negatives < 1:
            raise ValueError("dimension, window, and negatives must all be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        require_learning_rate(self.learning_rate)


class StaticEmbeddingModel:
    def __init__(self, vocabulary: Vocabulary, vectors_in: np.ndarray, vectors_out: np.ndarray, config: StaticTrainConfig):
        if not vectors_in.shape == vectors_out.shape == (len(vocabulary), config.dimension):
            raise ValueError(f"embedding matrices must be |V| x d, {len(vocabulary)} x "
                             f"{config.dimension}, and share shape")
        self.vocabulary = vocabulary
        self.vectors_in = vectors_in
        self.vectors_out = vectors_out
        self.config = config

    @property
    def dimension(self) -> int:
        return self.vectors_in.shape[1]

    @property
    def model_id(self) -> str:
        return f"static-{self.config.mode}-d{self.dimension}-seed{self.config.seed}"


def _sentence_ids(cleaned: Sequence[str], vocab: Vocabulary) -> List[List[int]]:
    """Cleaned texts as id lists; out-of-vocabulary words dropped."""
    index = vocab.index
    return [[index[tok] for tok in tokenize_words(text) if tok in index] for text in cleaned]


def _noise_distribution(vocab_size: int, counts_by_id: Dict[int, int]) -> np.ndarray:
    """Cumulative unigram^0.75 distribution over word ids, cut after the
    last id of nonzero weight."""
    weights = np.zeros(vocab_size)
    for idx, count in counts_by_id.items():
        weights[idx] = count ** NOISE_POWER
    total = weights.sum()
    if total == 0:
        raise ValueError("noise distribution has no mass; corpus has no known words")
    return np.cumsum(weights / total)[:np.flatnonzero(weights)[-1] + 1]


def _draw_noise(rng: RngStream, cumulative: np.ndarray, shape) -> np.ndarray:
    """Word ids drawn from the noise distribution, one per cell of `shape`.

    Every id drawn has nonzero weight. With `side="right"` a draw lands
    on the first entry above it, so never on a zero-weight id, whose
    entry equals the one before it (a draw of 0.0 included). The clip
    sends a draw at or above the last entry, which rounding can leave
    just below 1.0, to the last id.
    """
    drawn = np.searchsorted(cumulative, rng.random(shape), side="right")
    return np.minimum(drawn, len(cumulative) - 1)


def _flatten(sentences: List[List[int]]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The corpus as one id array, plus each position's sentence bounds [first, stop)."""
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.int64, count=int(lengths.sum()))
    stop = np.repeat(np.cumsum(lengths), lengths)
    return flat, stop - np.repeat(lengths, lengths), stop


def _context_windows(
    first: np.ndarray, stop: np.ndarray, positions: np.ndarray, reach: np.ndarray, window: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat-corpus indices of each position's context, with a validity mask.

    Row r covers the offsets -window..-1, 1..window around positions[r],
    in that order. An offset is valid when it is within reach[r] and
    inside the sentence [first, stop) that holds positions[r], so a
    window never crosses a sentence boundary. Invalid entries point at
    the center itself, which keeps every index in range.
    """
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    index = positions[:, None] + offsets
    valid = (
        (np.abs(offsets) <= reach[:, None])
        & (index >= first[positions, None])
        & (index < stop[positions, None])
    )
    return np.where(valid, index, positions[:, None]), valid


def _pairs(
    mode: str, flat: np.ndarray, positions: np.ndarray, index: np.ndarray, valid: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The training pairs of the context windows `_context_windows` returns.

    Per pair: its row of `positions`, the hidden ids whose masked mean
    is its input vector, that mask, and its target id. CBOW pairs each
    position that has context with its center. Skip-gram pairs each
    center with each of its context words, in position order, then
    offset order.
    """
    if mode == "cbow":
        rows = np.flatnonzero(valid.any(axis=1))
        return rows, flat[index[rows]], valid[rows], flat[positions[rows]]
    rows, k = np.nonzero(valid)
    return rows, flat[positions[rows]][:, None], np.ones((len(rows), 1), dtype=bool), flat[index[rows, k]]


def _scatter_add(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """table[ids] += rows with repeated ids summed, in a fixed order.

    One stable sort groups equal ids and `np.add.reduceat` sums each
    group, which is much cheaper than `np.add.at` on 2-D rows.
    """
    order = np.argsort(ids, kind="stable")
    unique, starts = np.unique(ids[order], return_index=True)
    table[unique] += np.add.reduceat(rows[order], starts, axis=0)


def _negative_sampling_step(
    vout: np.ndarray, h: np.ndarray, targets: np.ndarray, lr: np.ndarray,
    rng: RngStream, cumulative: np.ndarray, negatives: int,
) -> np.ndarray:
    """One positive and `negatives` draws per row of h; updates vout.

    Returns the learning-rate-scaled step for each row of h. A negative
    equal to its row's target gets zero weight.
    """
    drawn = _draw_noise(rng, cumulative, (len(targets), negatives))
    words = np.column_stack([targets, drawn])
    out = vout[words]
    f = logistic(np.einsum("bd,bkd->bk", h, out))
    labels = np.zeros(words.shape)
    labels[:, 0] = 1.0
    g = (labels - f) * lr[:, None]
    g[:, 1:] *= drawn != targets[:, None]
    _scatter_add(vout, words.ravel(), (g[:, :, None] * h[:, None, :]).reshape(-1, h.shape[1]))
    return np.einsum("bk,bkd->bd", g, out)


# A diverging run overflows the logistic's exp (1 / (1 + inf) is still the
# right 0.0) and may sum infinities of both signs; its vectors are refused
# after the epoch rather than warned about on every chunk.
@np.errstate(over="ignore", invalid="ignore")
def _train_sgd(
    model: StaticEmbeddingModel,
    sentences: List[List[int]],
    counts_by_id: Dict[int, int],
    epochs: int,
    rng: RngStream,
    epoch_callback: Optional[Callable[[StaticEmbeddingModel, int], None]] = None,
) -> None:
    config = model.config
    if not any(len(s) >= 2 for s in sentences):
        raise ValueError("corpus yields no training pairs inside the window")
    cumulative = _noise_distribution(len(model.vocabulary), counts_by_id)
    vin, vout = model.vectors_in, model.vectors_out
    flat, first, stop = _flatten(sentences)
    total_positions = epochs * len(flat)
    lr_start = config.learning_rate
    for epoch in range(epochs):
        for start in range(0, len(flat), CHUNK):
            positions = np.arange(start, min(start + CHUNK, len(flat)))
            done = epoch * len(flat) + positions
            lr = np.maximum(lr_start * (1.0 - done / total_positions), lr_start * 1e-4)
            reach = rng.integers(1, config.window + 1, len(positions))
            index, valid = _context_windows(first, stop, positions, reach, config.window)
            if not valid.any():
                continue
            rows, hidden, mask, targets = _pairs(config.mode, flat, positions, index, valid)
            count = mask.sum(axis=1)
            h = np.einsum("bk,bkd->bd", mask / count[:, None], vin[hidden])
            step = _negative_sampling_step(vout, h, targets, lr[rows], rng, cumulative, config.negatives)
            r, k = np.nonzero(mask)
            _scatter_add(vin, hidden[r, k], step[r] / count[r, None])
        if not (np.isfinite(vin).all() and np.isfinite(vout).all()):
            raise ValueError(f"static embedding training diverged: non-finite vectors after epoch {epoch + 1}")
        if epoch_callback is not None:
            epoch_callback(model, epoch)


def _grow_and_train(
    vocab: Vocabulary, vectors_in: np.ndarray, vectors_out: np.ndarray, config: StaticTrainConfig,
    corpus: UnlabeledCorpus, grow_rng: RngStream, train_rng: RngStream,
    epoch_callback: Optional[Callable[[StaticEmbeddingModel, int], None]] = None,
) -> StaticEmbeddingModel:
    """Append the corpus's new words to the vocabulary, then train on the corpus.

    A new word occurs at least `min_count` times and is not yet in the
    vocabulary; new words follow the old ones by descending count, ties
    in word order. Each entry without a row gets an input row drawn from
    `grow_rng` and a zero output row. The noise distribution counts this
    corpus alone, so entries it never mentions are neither sampled nor
    updated.
    """
    cleaned = [clean_text(doc) for doc in corpus.documents]
    counts = Counter(tok for text in cleaned for tok in tokenize_words(text))
    if not counts:
        raise ValueError("corpus is empty after cleaning")
    known = {tok: n for tok, n in counts.items() if tok in vocab.index or n >= config.min_count}
    if not known:
        raise ValueError(f"no word occurs min_count={config.min_count} times "
                         "or is already in the vocabulary")
    new_words = sorted((tok for tok in known if tok not in vocab.index), key=lambda tok: (-known[tok], tok))
    merged = Counter(vocab.counts)
    merged.update(known)
    grown = Vocabulary(vocab.tokens + new_words, vocab.specials, merged)

    d = vectors_in.shape[1]
    rows = len(grown) - len(vectors_in)
    model = StaticEmbeddingModel(
        grown,
        np.vstack([vectors_in, grow_rng.uniform(-0.5 / d, 0.5 / d, (rows, d))]),
        np.vstack([vectors_out, np.zeros((rows, d))]),
        config,
    )
    counts_by_id = {grown.index[tok]: n for tok, n in known.items()}
    _train_sgd(model, _sentence_ids(cleaned, grown), counts_by_id, config.epochs, train_rng, epoch_callback)
    return model


def train_static(
    corpus: UnlabeledCorpus,
    config: StaticTrainConfig,
    epoch_callback: Optional[Callable[[StaticEmbeddingModel, int], None]] = None,
) -> StaticEmbeddingModel:
    """Train from a vocabulary of the specials alone; see `_grow_and_train`."""
    rng = RngStream(config.seed)
    empty = np.zeros((0, config.dimension))
    return _grow_and_train(
        Vocabulary(SPECIALS, SPECIALS), empty, empty, config, corpus,
        rng.child("init"), rng.child("train"), epoch_callback,
    )


def finetune_static(
    model: StaticEmbeddingModel,
    corpus: UnlabeledCorpus,
    extra_epochs: int,
    seed: int = 0,
) -> StaticEmbeddingModel:
    """Extend the vocabulary with the new corpus and continue training.

    Words absent from the new corpus keep bitwise-identical vectors.
    """
    rng = RngStream(seed)
    return _grow_and_train(
        model.vocabulary, model.vectors_in, model.vectors_out,
        replace(model.config, epochs=extra_epochs), corpus, rng.child("grow"), rng.child("train"),
    )


def embed_word(model: StaticEmbeddingModel, token: str) -> Optional[np.ndarray]:
    """Input-matrix row, or None for OOV and specials."""
    if token in SPECIALS or token not in model.vocabulary.index:
        return None
    return model.vectors_in[model.vocabulary.index[token]]


def cosine(model: StaticEmbeddingModel, first: str, second: str) -> float:
    a = embed_word(model, first)
    b = embed_word(model, second)
    if a is None or b is None:
        raise KeyError(f"both words must be in vocabulary: {first!r}, {second!r}")
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 0.0
    return float(a @ b / denom)


FrozenBatch = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # (hidden ids, mask, targets, negatives)


def make_frozen_batch(model: StaticEmbeddingModel, corpus: UnlabeledCorpus, seed: int, limit: int = 64) -> FrozenBatch:
    """The corpus's first `limit` training pairs, with pre-drawn negatives.

    The pairs are the trainer's, over full-reach windows: hidden ids,
    their mask and the targets, plus `negatives` noise draws per pair.
    Evaluating `frozen_batch_loss` on this batch across epochs tracks
    optimization progress without the noise of resampled negatives.
    """
    vocab, config = model.vocabulary, model.config
    cumulative = _noise_distribution(len(vocab), {vocab.index[t]: c for t, c in vocab.counts.items()})
    flat, first, stop = _flatten(_sentence_ids([clean_text(doc) for doc in corpus.documents], vocab))
    positions = np.arange(len(flat))
    reach = np.full(len(flat), config.window)
    index, valid = _context_windows(first, stop, positions, reach, config.window)
    _, hidden, mask, targets = (part[:limit] for part in _pairs(config.mode, flat, positions, index, valid))
    if not len(targets):
        raise ValueError("corpus yields no training pairs inside the window")
    return hidden, mask, targets, _draw_noise(RngStream(seed), cumulative, (len(targets), config.negatives))


def frozen_batch_loss(model: StaticEmbeddingModel, batch: FrozenBatch) -> float:
    """Mean negative-sampling loss of the fixed batch under current vectors.

    A negative equal to its pair's target adds nothing.
    """
    hidden, mask, targets, negatives = batch
    h = np.einsum("bk,bkd->bd", mask / mask.sum(axis=1, keepdims=True), model.vectors_in[hidden])
    positive = np.logaddexp(0.0, -np.einsum("bd,bd->b", h, model.vectors_out[targets]))
    negative = np.logaddexp(0.0, np.einsum("bd,bkd->bk", h, model.vectors_out[negatives]))
    return float((positive + np.where(negatives == targets[:, None], 0.0, negative).sum(axis=1)).mean())


def save_static(model: StaticEmbeddingModel, path) -> None:
    vocab_lines = [
        f"{tok}\t{model.vocabulary.counts.get(tok, 0)}\t{idx}"
        for idx, tok in enumerate(model.vocabulary.tokens)
    ]
    save_checkpoint(
        path,
        {"vectors_in": parameter(model.vectors_in), "vectors_out": parameter(model.vectors_out)},
        meta={
            "kind": "static_embedding",
            "model_id": model.model_id,
            "config": asdict(model.config),
        },
        sections={"vocab": "\n".join(vocab_lines) + "\n"},
    )


def static_from_parts(params, meta, sections) -> StaticEmbeddingModel:
    """The embedding table held by the parts `load_checkpoint` returns."""
    require_kind(meta, "static_embedding")
    config = config_from_meta(StaticTrainConfig, meta.get("config"))
    if set(params) != {"vectors_in", "vectors_out"} or "vocab" not in sections:
        raise ValueError("checkpoint needs the parameters vectors_in and vectors_out "
                         "and a vocab section")
    tokens: List[str] = []
    counts: Dict[str, int] = {}
    for row, line in enumerate(sections["vocab"].splitlines()):
        fields = line.split("\t")
        if len(fields) != 3 or not fields[1].isdecimal() or fields[2] != str(row):
            raise ValueError(f"vocab line {row + 1} is not token<TAB>count<TAB>{row}: {line!r}")
        tokens.append(fields[0])
        counts[fields[0]] = int(fields[1])
    vocab = Vocabulary(tokens, SPECIALS, counts)
    return StaticEmbeddingModel(vocab, params["vectors_in"].data, params["vectors_out"].data, config)


def load_static(path) -> StaticEmbeddingModel:
    return static_from_parts(*load_checkpoint(path))
