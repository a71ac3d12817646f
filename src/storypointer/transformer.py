"""Bidirectional transformer encoder with MLM and NSP heads.

Layer 0 of every encoding is the raw token+position+segment embedding
sum; layers 1..L are the encoder block outputs. Padding enters
attention as a -1e9 additive bias on padded keys, so appending pads
never changes the representation of real tokens. The MLM decoder is
tied to the token embedding table.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .kernel import (
    RngStream,
    Tensor,
    dropout,
    layer_norm,
    parameter,
    softmax,
    take_rows,
)
from .kernel.checkpoint import (config_from_meta, load_checkpoint, require_kind, require_params,
                                save_checkpoint)
from .wordpiece import N_SPECIALS, PAD_ID, WordPieceVocab


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

    def validate(self) -> None:
        if self.heads < 1 or self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.max_len < 2:
            raise ValueError("max_len must leave room for [CLS] and [SEP]")
        if self.layers < 1 or self.vocab_size <= N_SPECIALS:
            raise ValueError("need at least 1 layer and a non-trivial vocabulary")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


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
    def __init__(self, config: TransformerConfig, vocab: WordPieceVocab,
                 params: Optional[Dict[str, Tensor]] = None):
        config.validate()
        if config.vocab_size != len(vocab):
            raise ValueError(f"config vocab_size {config.vocab_size} != vocabulary {len(vocab)}")
        self.config = config
        self.vocab = vocab
        self.params = params if params is not None else self._init_params()

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
    ) -> List[Tensor]:
        """All layer outputs: [embedding sum, encoder 1, ..., encoder L].

        `token_ids` and `segment_ids` are (batch, seq); [PAD] positions
        are masked out of attention.
        """
        c = self.config
        token_ids = np.asarray(token_ids, dtype=np.int64)
        _, seq_len = token_ids.shape
        if seq_len > c.max_len:
            raise ValueError(f"sequence length {seq_len} exceeds max_len {c.max_len}")
        if segment_ids is None:
            segment_ids = np.zeros_like(token_ids)
        attention_mask = (token_ids != PAD_ID).astype(np.float64)

        rate = c.dropout if train else 0.0
        if rate > 0 and rng is None:
            raise ValueError("training-mode encode needs an rng for dropout")
        p = self.params

        embedded = (
            take_rows(p["emb.token"], token_ids)
            + p["emb.position"][:seq_len]
            + take_rows(p["emb.segment"], segment_ids)
        )
        outputs = [embedded]
        x = layer_norm(embedded, p["emb.ln.gain"], p["emb.ln.bias"])
        x = dropout(x, rate, rng)
        mask_bias = Tensor((1.0 - attention_mask)[:, None, None, :] * -1e9)
        for i in range(c.layers):
            x = self._block(x, i, mask_bias, rate, rng)
            outputs.append(x)
        return outputs

    def _block(self, x: Tensor, i: int, mask_bias: Tensor, rate: float, rng) -> Tensor:
        p = self.params
        c = self.config
        batch, seq_len, hidden = x.shape
        head_dim = hidden // c.heads

        def heads(t: Tensor) -> Tensor:
            return t.reshape(batch, seq_len, c.heads, head_dim).transpose(0, 2, 1, 3)

        q = heads(x @ p[f"layer{i}.attn.wq"] + p[f"layer{i}.attn.bq"])
        k = heads(x @ p[f"layer{i}.attn.wk"] + p[f"layer{i}.attn.bk"])
        v = heads(x @ p[f"layer{i}.attn.wv"] + p[f"layer{i}.attn.bv"])
        scores = q @ k.swapaxes(-1, -2) * (1.0 / math.sqrt(head_dim)) + mask_bias
        probs = dropout(softmax(scores), rate, rng)
        context = (probs @ v).transpose(0, 2, 1, 3).reshape(batch, seq_len, hidden)
        attn_out = context @ p[f"layer{i}.attn.wo"] + p[f"layer{i}.attn.bo"]
        x = layer_norm(
            x + dropout(attn_out, rate, rng),
            p[f"layer{i}.attn.ln.gain"], p[f"layer{i}.attn.ln.bias"],
        )
        ff = (x @ p[f"layer{i}.ff.w1"] + p[f"layer{i}.ff.b1"]).gelu()
        ff = ff @ p[f"layer{i}.ff.w2"] + p[f"layer{i}.ff.b2"]
        return layer_norm(
            x + dropout(ff, rate, rng),
            p[f"layer{i}.ff.ln.gain"], p[f"layer{i}.ff.ln.bias"],
        )

    # ---- heads --------------------------------------------------------

    def mlm_logits(self, final_layer: Tensor, flat_positions: np.ndarray) -> Tensor:
        """Vocabulary logits at selected (batch*seq) flattened positions."""
        p = self.params
        batch, seq_len, hidden = final_layer.shape
        flat = final_layer.reshape(batch * seq_len, hidden)
        h = take_rows(flat, np.asarray(flat_positions, dtype=np.int64))
        h = (h @ p["mlm.dense.w"] + p["mlm.dense.b"]).gelu()
        h = layer_norm(h, p["mlm.ln.gain"], p["mlm.ln.bias"])
        return h @ p["emb.token"].swapaxes(0, 1) + p["mlm.bias"]

    def nsp_logits(self, final_layer: Tensor) -> Tensor:
        p = self.params
        cls = final_layer[:, 0, :]
        pooled = (cls @ p["nsp.pooler.w"] + p["nsp.pooler.b"]).tanh()
        return pooled @ p["nsp.w"] + p["nsp.b"]


def save_transformer(model: TransformerModel, path) -> None:
    save_checkpoint(
        path,
        model.params,
        meta={"kind": "transformer_lm", "model_id": model.model_id,
              "config": asdict(model.config)},
        sections={"vocab": "\n".join(model.vocab.pieces) + "\n"},
    )


def transformer_from_parts(params, meta, sections) -> TransformerModel:
    """The encoder held by the parts `load_checkpoint` returns."""
    require_kind(meta, "transformer_lm")
    config = config_from_meta(TransformerConfig, meta.get("config"))
    if "vocab" not in sections:
        raise ValueError("checkpoint has no vocab section")
    vocab = WordPieceVocab(sections["vocab"].splitlines())
    shapes = {name: shape for name, (_, shape) in _param_table(config).items()}
    require_params(params, shapes, "encoder")
    return TransformerModel(config, vocab, params=params)


def load_transformer(path) -> TransformerModel:
    return transformer_from_parts(*load_checkpoint(path))
