"""Numeric core: autograd tensors, layers, Adam, seeded randomness, and
the parameter container format."""

from .checkpoint import load_checkpoint, save_checkpoint
from .layers import LSTM, Dense, glorot_uniform
from .optim import Adam, clip_gradients
from .rng import RngStream, derive_seed
from .tensor import (
    Tensor,
    attention_scores,
    cross_entropy,
    dropout,
    layer_norm,
    linear,
    mse_loss,
    no_grad,
    parameter,
    softmax,
)

__all__ = [
    "Adam",
    "Dense",
    "LSTM",
    "RngStream",
    "Tensor",
    "attention_scores",
    "clip_gradients",
    "cross_entropy",
    "derive_seed",
    "dropout",
    "glorot_uniform",
    "layer_norm",
    "linear",
    "load_checkpoint",
    "mse_loss",
    "no_grad",
    "parameter",
    "save_checkpoint",
    "softmax",
]
