"""Bidirectional transformer encoder with MLM and NSP heads.

Layer 0 of every encoding is the raw token+position+segment embedding
sum; layers 1..L are the encoder block outputs. Padding enters
attention as a -1e9 additive bias on padded keys, so appending pads
never changes the representation of real tokens. The MLM decoder is
tied to the token embedding table.

A caller that reads only some positions of the last layer names them
(`encode`'s `at`), and the last block runs at those rows alone, past
its keys and values: pretraining's heads read [CLS] and the masked
positions, a few rows in each sequence.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .kernel import (
    RngStream,
    Tensor,
    attention_scores,
    dropout,
    embed,
    layer_norm,
    linear,
    parameter,
    residual_layer_norm,
    softmax,
)
from .kernel.checkpoint import (config_from_meta, load_checkpoint, require_kind, require_params,
                                save_checkpoint)
from .corpus import Vocabulary
from .wordpiece import N_SPECIALS, PAD_ID, SPECIALS


@dataclass(frozen=True)
class TransformerConfig:
    layers: int = 4
    hidden: int = 128
    heads: int = 4
    ff: int = 512
    max_len: int = 100
    vocab_size: int = 0
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.heads <= self.hidden or self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} is not a positive multiple of heads {self.heads}")
        if self.max_len < 2:
            raise ValueError("max_len must leave room for [CLS] and [SEP]")
        if self.layers < 1 or self.vocab_size <= N_SPECIALS:
            raise ValueError("need at least 1 layer and a non-trivial vocabulary")
        if self.ff < 1:
            raise ValueError(f"ff must be >= 1, got {self.ff}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


def pad_batch(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Id rows right-padded with [PAD] to the longest: the encoder's (batch, seq) input."""
    batch = np.full((len(rows), max(len(row) for row in rows)), PAD_ID, dtype=np.int64)
    for i, row in enumerate(rows):
        batch[i, :len(row)] = row
    return batch


def _param_table(c: TransformerConfig) -> Dict[str, Tuple[str, Tuple[int, ...]]]:
    """Every encoder parameter's (initializer, shape), in initialization order.

    Built from the config alone, so a checkpoint's parameters can be
    checked against it without drawing from the RNG.
    """
    h = c.hidden
    table: Dict[str, Tuple[str, Tuple[int, ...]]] = {
        "emb.token": ("normal", (c.vocab_size, h)),
        "emb.position": ("normal", (c.max_len, h)),
        "emb.segment": ("normal", (2, h)),
        "emb.ln.gain": ("ones", (h,)),
        "emb.ln.bias": ("zeros", (h,)),
        "mlm.dense.w": ("normal", (h, h)),
        "mlm.dense.b": ("zeros", (h,)),
        "mlm.ln.gain": ("ones", (h,)),
        "mlm.ln.bias": ("zeros", (h,)),
        "mlm.bias": ("zeros", (c.vocab_size,)),
        "nsp.pooler.w": ("normal", (h, h)),
        "nsp.pooler.b": ("zeros", (h,)),
        "nsp.w": ("normal", (h, 2)),
        "nsp.b": ("zeros", (2,)),
    }
    for i in range(c.layers):
        for name in ("wq", "wk", "wv", "wo"):
            table[f"layer{i}.attn.{name}"] = ("normal", (h, h))
        for name in ("bq", "bk", "bv", "bo"):
            table[f"layer{i}.attn.{name}"] = ("zeros", (h,))
        table[f"layer{i}.attn.ln.gain"] = ("ones", (h,))
        table[f"layer{i}.attn.ln.bias"] = ("zeros", (h,))
        table[f"layer{i}.ff.w1"] = ("normal", (h, c.ff))
        table[f"layer{i}.ff.b1"] = ("zeros", (c.ff,))
        table[f"layer{i}.ff.w2"] = ("normal", (c.ff, h))
        table[f"layer{i}.ff.b2"] = ("zeros", (h,))
        table[f"layer{i}.ff.ln.gain"] = ("ones", (h,))
        table[f"layer{i}.ff.ln.bias"] = ("zeros", (h,))
    return table


class TransformerModel:
    def __init__(self, config: TransformerConfig, vocab: Vocabulary,
                 params: Optional[Dict[str, Union[Tensor, np.ndarray]]] = None):
        """Given `params` must have the config's names and shapes; each array
        among them becomes a new parameter, each tensor is used as it is."""
        if config.vocab_size != len(vocab):
            raise ValueError(f"config vocab_size {config.vocab_size} != vocabulary {len(vocab)}")
        self.config = config
        self.vocab = vocab
        if params is None:
            params = self._init_params()
        require_params(params, {name: shape for name, (_, shape) in _param_table(config).items()},
                       "encoder")
        self.params = {name: p if isinstance(p, Tensor) else parameter(p) for name, p in params.items()}

    def _init_params(self) -> Dict[str, Tensor]:
        rng = RngStream(self.config.seed).child("init")
        init = {
            "normal": lambda shape: parameter(rng.normal(0.0, 0.02, shape)),
            "zeros": lambda shape: parameter(np.zeros(shape)),
            "ones": lambda shape: parameter(np.ones(shape)),
        }
        table = _param_table(self.config)
        return {name: init[kind](shape) for name, (kind, shape) in table.items()}

    @property
    def model_id(self) -> str:
        c = self.config
        return f"ctx-L{c.layers}-H{c.hidden}-A{c.heads}-seed{c.seed}"

    # ---- forward ------------------------------------------------------

    def encode(
        self,
        token_ids: np.ndarray,
        segment_ids: Optional[np.ndarray] = None,
        train: bool = False,
        rng: Optional[RngStream] = None,
        layers: Optional[int] = None,
        at: Optional[np.ndarray] = None,
    ) -> List[Tensor]:
        """Layer outputs: [embedding sum, encoder 1, ..., encoder `layers`].

        `layers` is the number of encoder blocks to run, 0 to L, and None
        runs all L. The outputs are the first `layers + 1` of a full
        encoding, so a caller that reads a lower layer runs no block above it.
        `token_ids` and `segment_ids` are (batch, seq), as `pad_batch` builds
        them; [PAD] positions are masked out of attention.

        `at`, a (batch, m) integer array of positions, is where a caller
        reads the last block run. That block then computes keys and values
        at every position, and everything else (queries, attention output,
        feed-forward, both layer norms) at the `at` rows alone, and its
        output is (batch, m, hidden): row i, slot j is what a full encoding
        holds at (i, at[i, j]), to rounding. A position may repeat. In
        training mode each dropout mask is drawn at its full shape, as
        without `at`, so `rng` is left where a full encoding leaves it.
        """
        c = self.config
        if layers is None:
            layers = c.layers
        elif not 0 <= layers <= c.layers:
            raise ValueError(f"layers must be in 0..{c.layers}, got {layers}")
        token_ids = np.asarray(token_ids, dtype=np.int64)
        batch, seq_len = token_ids.shape
        if seq_len > c.max_len:
            raise ValueError(f"sequence length {seq_len} exceeds max_len {c.max_len}")
        if at is not None:
            at = np.asarray(at)
            if layers == 0:
                raise ValueError("at selects rows of the last block, and layers=0 runs none")
            if at.ndim != 2 or at.shape[0] != batch or not np.issubdtype(at.dtype, np.integer):
                raise ValueError(f"at must be integer positions of shape (batch {batch}, m), "
                                 f"got {at.dtype} of shape {at.shape}")
            if at.size and not 0 <= at.min() <= at.max() < seq_len:
                raise ValueError(f"at holds a position outside the sequence of {seq_len}")
        segment_ids = (np.zeros_like(token_ids) if segment_ids is None
                       else np.asarray(segment_ids, dtype=np.int64))
        attention_mask = (token_ids != PAD_ID).astype(np.float64)

        rate = c.dropout if train else 0.0
        if rate > 0 and rng is None:
            raise ValueError("training-mode encode needs an rng for dropout")
        p = self.params

        embedded = embed(p["emb.token"], token_ids, p["emb.position"], p["emb.segment"],
                         segment_ids)
        outputs = [embedded]
        x = layer_norm(embedded, p["emb.ln.gain"], p["emb.ln.bias"])
        x = dropout(x, rate, rng)
        mask_bias = (1.0 - attention_mask)[:, None, None, :] * -1e9
        for i in range(layers):
            x = self._block(x, i, mask_bias, rate, rng, at if i == layers - 1 else None)
            outputs.append(x)
        return outputs

    def _block(self, x: Tensor, i: int, mask_bias: np.ndarray, rate: float, rng,
               at: Optional[np.ndarray] = None) -> Tensor:
        """Block i over x, with queries and all that follows them at the
        `at` rows of x (see `encode`), or at every row if `at` is None."""
        p = self.params
        c = self.config
        batch, seq_len, hidden = x.shape
        head_dim = hidden // c.heads
        rows = None if at is None else (at, seq_len)
        xq = x if at is None else x[np.arange(batch)[:, None], at]

        def heads(t: Tensor) -> Tensor:
            return t.reshape(batch, t.shape[1], c.heads, head_dim).transpose(0, 2, 1, 3)

        q = heads(linear(xq, p[f"layer{i}.attn.wq"], p[f"layer{i}.attn.bq"]))
        k = heads(linear(x, p[f"layer{i}.attn.wk"], p[f"layer{i}.attn.bk"]))
        v = heads(linear(x, p[f"layer{i}.attn.wv"], p[f"layer{i}.attn.bv"]))
        scores = attention_scores(q, k, 1.0 / math.sqrt(head_dim), mask_bias)
        probs = dropout(softmax(scores), rate, rng, rows)
        context = (probs @ v).transpose(0, 2, 1, 3).reshape(batch, xq.shape[1], hidden)
        x = residual_layer_norm(xq, context, p[f"layer{i}.attn.wo"], p[f"layer{i}.attn.bo"],
                                p[f"layer{i}.attn.ln.gain"], p[f"layer{i}.attn.ln.bias"], rate, rng,
                                rows)
        ff = linear(x, p[f"layer{i}.ff.w1"], p[f"layer{i}.ff.b1"]).gelu()
        return residual_layer_norm(x, ff, p[f"layer{i}.ff.w2"], p[f"layer{i}.ff.b2"],
                                   p[f"layer{i}.ff.ln.gain"], p[f"layer{i}.ff.ln.bias"], rate, rng,
                                   rows)

    # ---- heads --------------------------------------------------------

    def mlm_logits(self, final_layer: Tensor, rows: np.ndarray, slots: np.ndarray) -> Tensor:
        """Vocabulary logits at the (row, slot) pairs of `final_layer`'s first
        two axes: positions of a full encoding, or slots of its `at`."""
        p = self.params
        h = final_layer[rows, slots]
        h = linear(h, p["mlm.dense.w"], p["mlm.dense.b"]).gelu()
        h = layer_norm(h, p["mlm.ln.gain"], p["mlm.ln.bias"])
        return linear(h, p["emb.token"].transpose(1, 0), p["mlm.bias"])

    def nsp_logits(self, final_layer: Tensor) -> Tensor:
        """Pair-label logits from slot 0 of each row: [CLS] in a full
        encoding, and in one whose `at` starts with position 0."""
        p = self.params
        cls = final_layer[:, 0, :]
        pooled = linear(cls, p["nsp.pooler.w"], p["nsp.pooler.b"]).tanh()
        return linear(pooled, p["nsp.w"], p["nsp.b"])


def save_transformer(model: TransformerModel, path) -> None:
    save_checkpoint(
        path,
        model.params,
        meta={"kind": "transformer_lm", "model_id": model.model_id,
              "config": asdict(model.config)},
        sections={"vocab": "\n".join(model.vocab.tokens) + "\n"},
    )


def transformer_from_parts(params, meta, sections) -> TransformerModel:
    """The encoder held by the parts `load_checkpoint` returns."""
    require_kind(meta, "transformer_lm")
    config = config_from_meta(TransformerConfig, meta.get("config"))
    if "vocab" not in sections:
        raise ValueError("checkpoint has no vocab section")
    vocab = Vocabulary(sections["vocab"].splitlines(), SPECIALS)
    return TransformerModel(config, vocab, params=params)


def load_transformer(path) -> TransformerModel:
    return transformer_from_parts(*load_checkpoint(path))
