"""Context-free word embeddings: CBOW and skip-gram with negative sampling.

One embedding matrix pair per model: input vectors (the embeddings the
rest of the pipeline consumes) and output vectors (the sampled-softmax
side). Training is plain SGD over (center, context) pairs with
negatives drawn from the unigram^0.75 distribution; fine-tuning extends
the vocabulary and continues training on the new corpus only, so words
absent from it keep bitwise-identical vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import (
    PAD_WORD,
    UNK_WORD,
    UnlabeledCorpus,
    Vocabulary,
    build_word_vocab,
    clean_text,
    tokenize_words,
)
from .kernel import RngStream, parameter
from .kernel.checkpoint import load_checkpoint, require_kind, save_checkpoint

NOISE_POWER = 0.75


@dataclass(frozen=True)
class StaticTrainConfig:
    mode: str = "cbow"  # or "skipgram"
    dimension: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in ("cbow", "skipgram"):
            raise ValueError(f"mode must be cbow or skipgram, got {self.mode!r}")
        if self.dimension < 1 or self.window < 1 or self.negatives < 1:
            raise ValueError("dimension, window, and negatives must all be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


class StaticEmbeddingModel:
    def __init__(self, vocabulary: Vocabulary, vectors_in: np.ndarray, vectors_out: np.ndarray, config: StaticTrainConfig):
        if vectors_in.shape != vectors_out.shape or vectors_in.shape[0] != len(vocabulary):
            raise ValueError("embedding matrices must be |V| x d and share shape")
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


@dataclass(frozen=True)
class PooledVector:
    vector: np.ndarray
    oov_ratio: float
    degenerate: bool


def _sentence_ids(documents: Sequence[str], vocab: Vocabulary) -> List[List[int]]:
    """Cleaned documents as id lists; out-of-vocabulary words dropped."""
    unk = vocab.index[UNK_WORD]
    sentences = []
    for doc in documents:
        ids = [vocab.get(tok, UNK_WORD) for tok in tokenize_words(clean_text(doc))]
        sentences.append([i for i in ids if i != unk])
    return sentences


def _noise_distribution(vocab_size: int, counts_by_id: Dict[int, int]) -> np.ndarray:
    """Cumulative unigram^0.75 distribution over word ids."""
    weights = np.zeros(vocab_size)
    for idx, count in counts_by_id.items():
        weights[idx] = count ** NOISE_POWER
    total = weights.sum()
    if total == 0:
        raise ValueError("noise distribution has no mass; corpus has no known words")
    return np.cumsum(weights / total)


def _draw_negatives(rng: RngStream, cumulative: np.ndarray, count: int, exclude: int) -> List[int]:
    draws = np.searchsorted(cumulative, rng.random(count))
    return [int(d) for d in draws if int(d) != exclude]


def _log_sigmoid(x: float) -> float:
    return -float(np.logaddexp(0.0, -x))


def _pair_update(vin, vout, h, ids_for_h, target, negatives, lr) -> None:
    """One positive plus its negatives; h is the current hidden vector."""
    error = np.zeros(h.shape[0])
    for word, label in [(target, 1.0)] + [(n, 0.0) for n in negatives]:
        f = 1.0 / (1.0 + np.exp(-h @ vout[word]))
        g = (label - f) * lr
        error += g * vout[word]
        vout[word] += g * h
    np.add.at(vin, ids_for_h, error / len(ids_for_h))


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
    total_positions = epochs * sum(len(s) for s in sentences)
    done = 0
    lr_start = config.learning_rate
    for epoch in range(epochs):
        for sent in sentences:
            for i, center in enumerate(sent):
                lr = max(lr_start * (1.0 - done / total_positions), lr_start * 1e-4)
                done += 1
                reach = int(rng.integers(1, config.window + 1))
                context = sent[max(0, i - reach):i] + sent[i + 1:i + reach + 1]
                if not context:
                    continue
                if config.mode == "cbow":
                    h = vin[context].mean(axis=0)
                    negatives = _draw_negatives(rng, cumulative, config.negatives, center)
                    _pair_update(vin, vout, h, context, center, negatives, lr)
                else:
                    for ctx_word in context:
                        negatives = _draw_negatives(rng, cumulative, config.negatives, ctx_word)
                        _pair_update(vin, vout, vin[center].copy(), [center], ctx_word, negatives, lr)
        if epoch_callback is not None:
            epoch_callback(model, epoch)


def train_static(
    corpus: UnlabeledCorpus,
    config: StaticTrainConfig,
    epoch_callback: Optional[Callable[[StaticEmbeddingModel, int], None]] = None,
) -> StaticEmbeddingModel:
    config.validate()
    cleaned = [clean_text(doc) for doc in corpus.documents]
    vocab = build_word_vocab(cleaned, min_count=config.min_count)
    rng = RngStream(config.seed)
    d = config.dimension
    vectors_in = rng.child("init").uniform(-0.5 / d, 0.5 / d, (len(vocab), d))
    vectors_out = np.zeros((len(vocab), d))
    model = StaticEmbeddingModel(vocab, vectors_in, vectors_out, config)
    sentences = _sentence_ids(corpus.documents, vocab)
    counts_by_id = {vocab.index[t]: c for t, c in vocab.counts.items()}
    _train_sgd(model, sentences, counts_by_id, config.epochs, rng.child("train"), epoch_callback)
    return model


def finetune_static(
    model: StaticEmbeddingModel,
    corpus: UnlabeledCorpus,
    extra_epochs: int,
    seed: int = 0,
) -> StaticEmbeddingModel:
    """Extend the vocabulary with the new corpus and continue training.

    The negative-sampling noise distribution is built from the new
    corpus alone, so vocabulary entries it never mentions are neither
    sampled nor updated.
    """
    if extra_epochs < 1:
        raise ValueError("extra_epochs must be >= 1")
    cleaned = [clean_text(doc) for doc in corpus.documents]
    new_counts: Dict[str, int] = {}
    for text in cleaned:
        for tok in tokenize_words(text):
            new_counts[tok] = new_counts.get(tok, 0) + 1
    if not new_counts:
        raise ValueError("fine-tuning corpus is empty after cleaning")

    vocab = model.vocabulary
    fresh = [
        (tok, n) for tok, n in new_counts.items()
        if n >= model.config.min_count and tok not in vocab.index
    ]
    fresh.sort(key=lambda item: (-item[1], item[0]))
    fresh_tokens = {tok for tok, _ in fresh}
    merged_counts = dict(vocab.counts)
    for tok, n in new_counts.items():
        if tok in vocab.index or tok in fresh_tokens:
            merged_counts[tok] = merged_counts.get(tok, 0) + n
    new_vocab = Vocabulary(
        specials=vocab.specials,
        ordered_tokens=[t for t in vocab.tokens if t not in vocab.specials] + [t for t, _ in fresh],
        counts=merged_counts,
    )

    d = model.dimension
    rng = RngStream(seed)
    grown_in = np.vstack([
        model.vectors_in.copy(),
        rng.child("grow").uniform(-0.5 / d, 0.5 / d, (len(fresh), d)) if fresh else np.zeros((0, d)),
    ])
    grown_out = np.vstack([model.vectors_out.copy(), np.zeros((len(fresh), d))])
    tuned = StaticEmbeddingModel(new_vocab, grown_in, grown_out, replace(model.config, epochs=extra_epochs))

    sentences = _sentence_ids(corpus.documents, new_vocab)
    counts_by_id = {
        new_vocab.index[t]: n for t, n in new_counts.items() if t in new_vocab.index
    }
    _train_sgd(tuned, sentences, counts_by_id, extra_epochs, rng.child("train"))
    return tuned


def embed_word(model: StaticEmbeddingModel, token: str) -> Optional[np.ndarray]:
    """Input-matrix row, or None for OOV and specials."""
    if token in (PAD_WORD, UNK_WORD) or token not in model.vocabulary.index:
        return None
    return model.vectors_in[model.vocabulary.index[token]]


def mean_pool_sentence(model: StaticEmbeddingModel, tokens: Sequence[str]) -> PooledVector:
    """Mean of known-word vectors; pads never count, OOV words are skipped."""
    real = [t for t in tokens if t != PAD_WORD]
    vectors = [embed_word(model, t) for t in real]
    known = [v for v in vectors if v is not None]
    if not real or not known:
        return PooledVector(np.zeros(model.dimension), oov_ratio=1.0, degenerate=True)
    oov_ratio = 1.0 - len(known) / len(real)
    return PooledVector(np.mean(known, axis=0), oov_ratio=oov_ratio, degenerate=False)


def cosine(model: StaticEmbeddingModel, first: str, second: str) -> float:
    a = embed_word(model, first)
    b = embed_word(model, second)
    if a is None or b is None:
        raise KeyError(f"both words must be in vocabulary: {first!r}, {second!r}")
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 0.0
    return float(a @ b / denom)


FrozenPair = Tuple[Tuple[int, ...], int, Tuple[int, ...]]  # (hidden ids, target, negatives)


def make_frozen_batch(model: StaticEmbeddingModel, corpus: UnlabeledCorpus, seed: int, limit: int = 64) -> List[FrozenPair]:
    """A fixed set of training pairs with pre-drawn negatives.

    Evaluating `frozen_batch_loss` on this batch across epochs tracks
    optimization progress without the noise of resampled negatives.
    """
    rng = RngStream(seed)
    vocab = model.vocabulary
    sentences = _sentence_ids(corpus.documents, vocab)
    counts_by_id = {vocab.index[t]: c for t, c in vocab.counts.items() if t in vocab.index}
    cumulative = _noise_distribution(len(vocab), counts_by_id)
    config = model.config
    batch: List[FrozenPair] = []
    for sent in sentences:
        for i, center in enumerate(sent):
            context = sent[max(0, i - config.window):i] + sent[i + 1:i + config.window + 1]
            if not context:
                continue
            if config.mode == "cbow":
                negatives = tuple(_draw_negatives(rng, cumulative, config.negatives, center))
                batch.append((tuple(context), center, negatives))
            else:
                for ctx_word in context:
                    negatives = tuple(_draw_negatives(rng, cumulative, config.negatives, ctx_word))
                    batch.append(((center,), ctx_word, negatives))
            if len(batch) >= limit:
                return batch
    if not batch:
        raise ValueError("corpus yields no training pairs inside the window")
    return batch


def frozen_batch_loss(model: StaticEmbeddingModel, batch: Sequence[FrozenPair]) -> float:
    """Mean negative-sampling loss of the fixed batch under current vectors."""
    vin, vout = model.vectors_in, model.vectors_out
    total = 0.0
    for hidden_ids, target, negatives in batch:
        h = vin[list(hidden_ids)].mean(axis=0)
        loss = -_log_sigmoid(float(h @ vout[target]))
        for neg in negatives:
            loss -= _log_sigmoid(-float(h @ vout[neg]))
        total += loss
    return total / len(batch)


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
            "config": model.config.__dict__,
        },
        sections={"vocab": "\n".join(vocab_lines) + "\n"},
    )


def static_from_parts(params, meta, sections) -> StaticEmbeddingModel:
    """The embedding table held by the parts `load_checkpoint` returns."""
    require_kind(meta, "static_embedding")
    tokens: List[str] = []
    counts: Dict[str, int] = {}
    for line in sections["vocab"].splitlines():
        tok, count, _ = line.split("\t")
        tokens.append(tok)
        counts[tok] = int(count)
    specials = (PAD_WORD, UNK_WORD)
    vocab = Vocabulary(specials=specials, ordered_tokens=[t for t in tokens if t not in specials], counts=counts)
    config = StaticTrainConfig(**meta["config"])
    return StaticEmbeddingModel(vocab, params["vectors_in"].data, params["vectors_out"].data, config)


def load_static(path) -> StaticEmbeddingModel:
    return static_from_parts(*load_checkpoint(path))
