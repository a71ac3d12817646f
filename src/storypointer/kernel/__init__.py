"""Numeric core: autograd tensors, layers, Adam, gradient checking,
seeded randomness, and the parameter container format."""

from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import GradCheckReport, central_difference, grad_check
from .layers import LSTM, Dense, glorot_uniform
from .optim import Adam, clip_gradients
from .rng import RngStream, derive_seed
from .tensor import (
    Tensor,
    cross_entropy,
    dropout,
    ensure_tensor,
    layer_norm,
    mse_loss,
    no_grad,
    parameter,
    softmax,
    take_rows,
)

__all__ = [
    "Adam",
    "Dense",
    "GradCheckReport",
    "LSTM",
    "RngStream",
    "Tensor",
    "central_difference",
    "clip_gradients",
    "cross_entropy",
    "derive_seed",
    "dropout",
    "ensure_tensor",
    "glorot_uniform",
    "grad_check",
    "layer_norm",
    "load_checkpoint",
    "mse_loss",
    "no_grad",
    "parameter",
    "save_checkpoint",
    "softmax",
    "take_rows",
]
